#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "flow/model_store.hpp"
#include "ml/forest_view.hpp"
#include "util/io.hpp"

namespace caml::store {

/// Binary model-store section, the one model-store file format: a
/// CAMLF1 container of kind "models.bin" whose payload is a
/// fixed-layout, offset-indexed binary image of a GroupModelStore. The
/// layout is designed for zero-parse mmap serving: a 64-byte header, a
/// sorted group-key index table, then per-group forest sections that are
/// the trees' in-memory images byte for byte (16-byte TreeNode records
/// plus leaf-count arrays) — MappedModelStore walks trees directly over
/// the mapping.
///
/// Payload layout (all integers native little-endian, offsets relative
/// to the payload start; every field is read through memcpy so the
/// payload may begin at any byte alignment after the variable-length
/// container header):
///
///   BinHeader (64 bytes)
///     0  magic[8]        "CAMLBIN1"
///     8  endian u32      0x01020304 (byte-order canary)
///    12  version u32     1
///    16  payload_size u64  total payload bytes (== container len)
///    24  group_count u32
///    28  matrix_flags u32  bit0 activity, bit1 response,
///                          bit2 truth table, bit3 defect kind
///    32  index_offset u64  == 64
///    40  data_offset u64   == 64 + 32 * group_count
///    48  index_crc32 u32   CRC-32 of the index table bytes
///    52  payload_crc32 u32 CRC-32 of [data_offset, payload_size);
///                          written for other readers, not re-checked by
///                          MappedModelStore, which relies on the
///                          container CRC for the data section
///    56  reserved u64      0
///
///   IndexEntry (32 bytes each, sorted by (inputs, transistors),
///   forest sections contiguous in index order)
///     0  num_inputs u32
///     4  num_transistors u32
///     8  forest_offset u64
///    16  forest_size u64
///    24  num_trees u32
///    28  num_features u32
///
///   Forest section: num_trees tree sections back to back, each
///     0  node_count u64
///     8  reserved u64    0
///    16  nodes   node_count * 16 bytes (TreeNode records, ml/tree.hpp)
///        count0  node_count * u64 (leaf votes, class 0)
///        count1  node_count * u64
///
/// See docs/FORMATS.md for the normative spec.
inline constexpr std::string_view kBinaryStoreKind = "models.bin";
inline constexpr char kBinaryMagic[8] = {'C', 'A', 'M', 'L', 'B', 'I', 'N', '1'};
inline constexpr std::uint32_t kEndianTag = 0x01020304u;
inline constexpr std::uint32_t kBinaryVersion = 1;
inline constexpr std::size_t kBinHeaderBytes = 64;
inline constexpr std::size_t kIndexEntryBytes = 32;
inline constexpr std::size_t kTreeHeaderBytes = 16;

/// Writes `store` as the binary section and publishes it atomically at
/// `path` (streaming writer: staging file, fsync, rename; fault point
/// "store"). The bytes depend only on the forests and matrix options, so
/// `caml train -o` writes the same file for any --jobs value. Throws
/// caml::Error on I/O failure.
void write_binary_store_file(const std::string& path, const GroupModelStore& store);

/// Read-only model store over a memory-mapped binary section: open cost
/// is O(header + index + one header per tree), independent of forest
/// node counts, and predictions traverse the packed node arrays in
/// place — zero parse, zero copy. Implements the same ModelStore
/// contract as GroupModelStore and answers bit-identically to the store
/// it was written from (enforced by tests/store_test.cpp).
class MappedModelStore final : public ModelStore {
 public:
  /// kFull (default, used by serve and the CLI) additionally checks the
  /// container CRC (which covers the data section) and every forest through
  /// find_forest_defect (ml/forest.hpp) — a corrupt or adversarial file
  /// fails with a ParseError naming the file and byte offset, never UB.
  /// Any other container kind (such as a `models` text store written by
  /// an older `caml train`) fails with a ParseError naming the file and
  /// the kind it found.
  /// kMapOnly skips the O(payload) work and trusts the index CRC plus
  /// section-bounds walk; it exists so bench_store_load can demonstrate
  /// the size-independent open cost.
  enum class Verify { kFull, kMapOnly };

  /// Maps and validates `path`. Throws caml::ParseError (naming the file
  /// and byte offset) on any validation failure, caml::Error when the
  /// file cannot be opened or mapped.
  static MappedModelStore open(const std::string& path, Verify verify = Verify::kFull);

  MappedModelStore(MappedModelStore&&) noexcept = default;
  MappedModelStore& operator=(MappedModelStore&&) noexcept = default;

  std::size_t num_groups() const override { return keys_.size(); }
  const MatrixOptions& matrix_options() const override { return matrix_; }
  const Classifier* classifier_for(const GroupKey& key) const override;

  /// Size revalidation against the pinned fd: false once the backing
  /// file was truncated or rewritten in place (its on-disk size differs
  /// from the mapped size) — accesses past the new EOF would SIGBUS.
  /// The serve plane checks this before every batch and treats false as
  /// a store fault.
  bool healthy() const override { return !file_.size_changed(); }

  /// Per-group section facts for `caml store --info`.
  struct GroupInfo {
    GroupKey key;
    std::uint64_t forest_offset = 0;
    std::uint64_t forest_size = 0;
    std::uint32_t num_trees = 0;
    std::uint32_t num_features = 0;
  };
  const std::vector<GroupInfo>& group_infos() const { return infos_; }

  /// Size of the underlying mapping (whole file) — feeds the
  /// caml_store_bytes_mapped gauge.
  std::size_t bytes_mapped() const { return file_.size(); }
  const std::string& path() const { return path_; }

 private:
  MappedModelStore() = default;

  io::MappedFile file_;
  std::string path_;
  MatrixOptions matrix_;
  std::vector<GroupKey> keys_;          ///< sorted, parallel to forests_
  std::vector<MappedForest> forests_;
  std::vector<GroupInfo> infos_;
};

/// MappedModelStore::open (kFull) plus an INFO log line: the entry point
/// `caml serve` (startup, SIGHUP, fault refresh) and `caml predict` load
/// through.
std::shared_ptr<const MappedModelStore> open_model_store(const std::string& path);

}  // namespace caml::store
