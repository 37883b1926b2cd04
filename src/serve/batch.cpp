#include "serve/batch.hpp"

#include <utility>

#include "camatrix/canonical.hpp"
#include "camodel/model_io.hpp"
#include "defect/universe.hpp"
#include "flow/ml_flow.hpp"
#include "netlist/spice_parser.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/sigguard.hpp"

namespace caml::serve {

namespace {

Frame error_response(std::uint64_t request_id, ErrorCode code, const std::string& message) {
  Frame frame;
  frame.type = MsgType::kError;
  frame.request_id = request_id;
  frame.payload = encode_error(ErrorBody{code, 0, message});
  return frame;
}

}  // namespace

PredictOutcome answer_predict(const ModelStore& store, const PolicyProfile& policy,
                              PredictJob job) {
  CAML_TRACE_SPAN_ITEMS("serve_batch", 1);
  PredictOutcome out;
  out.conn_id = job.conn_id;
  out.seq = job.seq;
  out.enqueued_us = job.enqueued_us;
  const std::uint64_t id = job.request_id;
  try {
    const std::vector<Cell> cells = SpiceParser().parse_string(job.netlist);
    if (cells.size() != 1) {
      out.kind = PredictOutcome::Kind::kError;
      out.response = error_response(id, ErrorCode::kBadRequest,
                                    "expected exactly one .SUBCKT per request, got " +
                                        std::to_string(cells.size()));
      return out;
    }
    const Cell& cell = cells.front();
    const GroupKey key{cell.num_inputs(), cell.num_transistors()};
    const Classifier* classifier = store.classifier_for(key);
    if (classifier == nullptr) {
      out.kind = PredictOutcome::Kind::kNoGroup;
      out.response = error_response(
          id, ErrorCode::kNoGroup,
          "no trained model for group (" + std::to_string(key.num_inputs) + " inputs, " +
              std::to_string(key.num_transistors) + " transistors); cell " + cell.name() +
              " needs conventional generation");
      return out;
    }
    PreparedPrediction prepared =
        prepare_prediction(cell, canonicalize(cell), policy.policy_for(cell.num_inputs()),
                           SimConfig{}, store.matrix_options(), enumerate_defects(cell));
    std::vector<std::uint8_t> labels;
    if (prepared.matrix.num_rows() > 0) {
      labels = classifier->predict_grid(row_grid(prepared.matrix));
    }
    const CaModel predicted = finish_prediction(std::move(prepared), labels.data());
    out.response.type = MsgType::kPredictOk;
    out.response.request_id = id;
    out.response.payload = ca_model_to_string(predicted, cell);
    out.kind = PredictOutcome::Kind::kOk;
    out.rows_classified = predicted.defects.size() * predicted.stimuli.size();
  } catch (const io::MappingFault& e) {
    // The mapped store faulted mid-traversal (file changed under the
    // mapping). Fail this request with a structured INTERNAL and flag it
    // so the server swaps to a good snapshot — the daemon itself never
    // dies.
    log_error() << "store fault while answering a prediction: " << e.what();
    out.kind = PredictOutcome::Kind::kError;
    out.store_fault = true;
    out.response = error_response(id, ErrorCode::kInternal, e.what());
  } catch (const ParseError& e) {
    out.kind = PredictOutcome::Kind::kError;
    out.response = error_response(id, ErrorCode::kParseError, e.what());
  } catch (const Error& e) {
    log_warn() << "prediction failed: " << e.what();
    out.kind = PredictOutcome::Kind::kError;
    out.response = error_response(id, ErrorCode::kInternal, e.what());
  }
  return out;
}

std::vector<PredictOutcome> answer_predict_batch(const ModelStore& store,
                                                 const PolicyProfile& policy,
                                                 std::vector<PredictJob> jobs) {
  std::vector<PredictOutcome> outcomes;
  outcomes.reserve(jobs.size());
  for (PredictJob& job : jobs) outcomes.push_back(answer_predict(store, policy, std::move(job)));
  return outcomes;
}

}  // namespace caml::serve
