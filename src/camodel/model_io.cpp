#include "camodel/model_io.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"
#include "util/io.hpp"
#include "util/strings.hpp"

namespace caml {

namespace {

const char* policy_name(StimulusPolicy p) {
  switch (p) {
    case StimulusPolicy::kStaticOnly: return "static";
    case StimulusPolicy::kSingleInputChange: return "single";
    case StimulusPolicy::kExhaustivePairs: return "exhaustive";
  }
  throw Error("invalid StimulusPolicy");
}

StimulusPolicy policy_from_name(const std::string& name, std::size_t line) {
  if (name == "static") return StimulusPolicy::kStaticOnly;
  if (name == "single") return StimulusPolicy::kSingleInputChange;
  if (name == "exhaustive") return StimulusPolicy::kExhaustivePairs;
  throw ParseError("unknown stimulus policy '" + name + "'", line);
}

std::string terminal_ref_string(const Cell& cell, const TerminalRef& r) {
  return cell.transistor(r.transistor).name + "." + terminal_name(r.terminal);
}

TerminalRef parse_terminal_ref(const Cell& cell, const std::string& text, std::size_t line) {
  const std::size_t dot = text.rfind('.');
  if (dot == std::string::npos || dot + 2 != text.size()) {
    throw ParseError("bad terminal reference '" + text + "'", line);
  }
  const std::string device = text.substr(0, dot);
  TransistorId id = -1;
  for (std::size_t i = 0; i < cell.num_transistors(); ++i) {
    if (cell.transistors()[i].name == device) {
      id = static_cast<TransistorId>(i);
      break;
    }
  }
  if (id < 0) throw Error("CA model references unknown device '" + device + "'");
  Terminal term;
  switch (text[dot + 1]) {
    case 'D': term = Terminal::kDrain; break;
    case 'G': term = Terminal::kGate; break;
    case 'S': term = Terminal::kSource; break;
    case 'B': term = Terminal::kBulk; break;
    default: throw ParseError("bad terminal letter in '" + text + "'", line);
  }
  return TerminalRef{id, term};
}

}  // namespace

void write_ca_model(std::ostream& os, const CaModel& model, const Cell& cell) {
  os << "CAMODEL " << model.cell_name << " INPUTS " << model.num_inputs << " POLICY "
     << policy_name(model.policy) << " DEFECTS " << model.defects.size() << '\n';
  os << "GOLDEN ";
  for (Sig s : model.golden_responses) os << sig_char(s);
  os << '\n';
  for (const CaDefectEntry& d : model.defects) {
    os << "DEFECT ";
    if (d.defect.strength == DefectStrength::kResistive) os << "resistive ";
    os << defect_kind_name(d.defect.kind) << ' '
       << terminal_ref_string(cell, d.defect.a);
    if (d.defect.kind == DefectKind::kShort) {
      os << ' ' << terminal_ref_string(cell, d.defect.b);
    }
    os << " CLASS " << defect_class_name(d.klass) << '\n';
    os << "DETECT ";
    for (std::uint8_t bit : d.detection) os << (bit ? '1' : '0');
    os << '\n';
  }
  os << "ENDMODEL\n";
}

CaModel read_ca_model(std::istream& in, const Cell& cell) {
  CaModel model;
  std::string line;
  std::size_t line_no = 0;

  const auto next_line = [&]() -> std::string {
    while (std::getline(in, line)) {
      ++line_no;
      const std::string_view t = trim(line);
      if (!t.empty()) return std::string(t);
    }
    throw ParseError("unexpected end of CA model", line_no);
  };

  // Header.
  {
    const std::vector<std::string> tok = split(next_line());
    if (tok.size() != 8 || tok[0] != "CAMODEL" || tok[2] != "INPUTS" || tok[4] != "POLICY" ||
        tok[6] != "DEFECTS") {
      throw ParseError("bad CAMODEL header", line_no);
    }
    model.cell_name = tok[1];
    model.num_inputs = parse_size(tok[3], "CAMODEL input count", line_no);
    model.policy = policy_from_name(tok[5], line_no);
    model.defects.reserve(
        std::min<std::size_t>(parse_size(tok[7], "CAMODEL defect count", line_no), 1 << 20));
    // Stimulus generation is exponential in the input count; reject
    // corrupt headers before they can exhaust memory.
    if (model.num_inputs > 24) {
      throw ParseError("implausible CAMODEL input count " + tok[3], line_no);
    }
  }
  model.stimuli = generate_stimuli(model.num_inputs, model.policy);

  // Golden responses.
  {
    const std::vector<std::string> tok = split(next_line());
    if (tok.size() != 2 || tok[0] != "GOLDEN") throw ParseError("expected GOLDEN line", line_no);
    if (tok[1].size() != model.stimuli.size()) {
      throw ParseError("GOLDEN length mismatch", line_no);
    }
    for (char c : tok[1]) {
      switch (c) {
        case '0': model.golden_responses.push_back(Sig::kZero); break;
        case '1': model.golden_responses.push_back(Sig::kOne); break;
        default: throw ParseError("golden responses must be binary", line_no);
      }
    }
  }

  // Defect blocks.
  for (;;) {
    const std::string header = next_line();
    if (header == "ENDMODEL") break;
    const std::vector<std::string> tok = split(header);
    if (tok.size() < 2 || tok[0] != "DEFECT") throw ParseError("expected DEFECT line", line_no);
    CaDefectEntry entry;
    std::size_t pos = 1;
    if (tok[pos] == "resistive") {
      entry.defect.strength = DefectStrength::kResistive;
      ++pos;
      if (pos >= tok.size()) throw ParseError("resistive needs a defect kind", line_no);
    }
    if (tok[pos] == "open") {
      if (tok.size() < pos + 2) throw ParseError("open defect needs a terminal", line_no);
      entry.defect.kind = DefectKind::kOpen;
      entry.defect.a = entry.defect.b = parse_terminal_ref(cell, tok[pos + 1], line_no);
      pos += 2;
    } else if (tok[pos] == "short") {
      if (tok.size() < pos + 3) throw ParseError("short defect needs two terminals", line_no);
      entry.defect.kind = DefectKind::kShort;
      entry.defect.a = parse_terminal_ref(cell, tok[pos + 1], line_no);
      entry.defect.b = parse_terminal_ref(cell, tok[pos + 2], line_no);
      pos += 3;
    } else {
      throw ParseError("unknown defect kind '" + tok[pos] + "'", line_no);
    }
    if (pos + 1 >= tok.size() || tok[pos] != "CLASS") {
      throw ParseError("expected CLASS in DEFECT line", line_no);
    }

    const std::vector<std::string> det = split(next_line());
    if (det.size() != 2 || det[0] != "DETECT") throw ParseError("expected DETECT line", line_no);
    if (det[1].size() != model.stimuli.size()) {
      throw ParseError("DETECT length mismatch", line_no);
    }
    entry.detection.reserve(det[1].size());
    for (char c : det[1]) {
      if (c != '0' && c != '1') throw ParseError("DETECT must be a bitstring", line_no);
      entry.detection.push_back(static_cast<std::uint8_t>(c == '1'));
    }
    model.defects.push_back(std::move(entry));
  }
  // Classes are recomputed rather than trusted from the file.
  model.classify();
  return model;
}

std::string ca_model_to_string(const CaModel& model, const Cell& cell) {
  std::ostringstream os;
  write_ca_model(os, model, cell);
  return os.str();
}

CaModel ca_model_from_string(const std::string& text, const Cell& cell) {
  std::istringstream in(text);
  return read_ca_model(in, cell);
}

void write_ca_model_file(const std::string& path, const CaModel& model, const Cell& cell) {
  io::write_checksummed_file(path, "camodel", ca_model_to_string(model, cell), "checkpoint");
}

CaModel read_ca_model_file(const std::string& path, const Cell& cell) {
  const std::string text = io::read_checksummed_file(path, "camodel");
  try {
    return ca_model_from_string(text, cell);
  } catch (const ParseError& e) {
    throw ParseError::in_file(path, e);
  }
}

}  // namespace caml
