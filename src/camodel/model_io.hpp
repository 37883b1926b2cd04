#pragma once

#include <istream>
#include <ostream>
#include <string>

#include "camodel/ca_model.hpp"
#include "netlist/cell.hpp"

namespace caml {

/// Text serialization of CA models — the stand-in for the commercial CA
/// model files the paper's flow "rewrites" into its internal form
/// (Fig. 3, first step). Round-trips exactly.
///
///   CAMODEL NAND2X1 INPUTS 2 POLICY exhaustive DEFECTS 36
///   GOLDEN 1110...
///   DEFECT open MN0.G CLASS static
///   DETECT 00100...
///   ...
///   ENDMODEL
void write_ca_model(std::ostream& os, const CaModel& model, const Cell& cell);

/// Parses one CAMODEL block. The cell provides the device-name ->
/// transistor mapping; throws caml::ParseError on malformed input or
/// caml::Error when a referenced device does not exist in the cell.
CaModel read_ca_model(std::istream& in, const Cell& cell);

std::string ca_model_to_string(const CaModel& model, const Cell& cell);
CaModel ca_model_from_string(const std::string& text, const Cell& cell);

/// Durable .camodel file: the CAMODEL text wrapped in a checksummed
/// CAMLF1 container (kind "camodel") and published atomically — the one
/// on-disk form, written by characterization, `caml predict -o` and
/// `caml query -o` alike. A truncated, bit-flipped or unframed file is
/// rejected on load (ParseError naming the file and offset) instead of
/// training on garbage.
void write_ca_model_file(const std::string& path, const CaModel& model, const Cell& cell);
CaModel read_ca_model_file(const std::string& path, const Cell& cell);

}  // namespace caml
