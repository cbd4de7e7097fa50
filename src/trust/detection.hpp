#pragma once

#include <span>
#include <string>
#include <vector>

#include "net/node_id.hpp"
#include "stats/confidence.hpp"

namespace manet::trust {

/// One second-hand answer entering the trusted aggregation of Eq. 8:
/// `evidence` is e^{Si,I} in {-1, 0, +1} (-1 "the advertised link is wrong",
/// +1 "the link is correct", 0 "no answer before the timeout"), and `trust`
/// is T^{A,Si}, the investigator's trust in the answering node.
struct WeightedAnswer {
  net::NodeId source;
  double trust = 0.0;
  double evidence = 0.0;
};

/// Eq. 8: Detect^{A,I} = sum_i w_i T^{A,Si} e^{Si,I} with
/// w_i = 1 / sum_j T^{A,Sj}, accumulated in one pass: `add` each answer's
/// trust and evidence in answer order, then read `value`. The one Eq. 8
/// rule; aggregate_detection and the pipeline's round and pooled
/// aggregates all sum through it.
class DetectionSum {
 public:
  void add(double trust, double evidence) {
    trust_ += trust;
    weighted_ += trust * evidence;
  }
  /// In [-1, 1] for non-negative trust and evidence in [-1, 1]; near -1
  /// means the suspect falsified the link. 0 when total trust is not
  /// positive (no usable opinions).
  double value() const { return trust_ <= 0.0 ? 0.0 : weighted_ / trust_; }

 private:
  double trust_ = 0.0;     ///< sum_j T^{A,Sj}
  double weighted_ = 0.0;  ///< sum_i T^{A,Si} e^{Si,I}
};

/// Eq. 8 over answers that carry their own trust.
double aggregate_detection(std::span<const WeightedAnswer> answers);

/// Verdict of the decision rule (Eq. 10).
enum class Verdict {
  kWellBehaving,
  kIntruder,
  kUnrecognized,  ///< gather more evidence
};

std::string to_string(Verdict v);

/// The Eq. 9-10 decision rule's parameters.
struct DecisionConfig {
  double gamma = 0.6;            ///< decision threshold of Eq. 10 / §V
  double confidence_level = 0.95;  ///< cl of Eq. 9
  /// When true (paper behaviour) the margin of error gates the decision;
  /// when false the rule degenerates to simple thresholding — the Table D
  /// ablation compares the two.
  bool use_confidence_interval = true;
};

/// Eq. 10, the one decision rule: with eps the Eq. 9 `margin` (0 when the
/// config turns the interval gate off),
///   well-behaving  if  gamma <= Detect - eps <= 1
///   intruder       if  -1 <= Detect + eps <= -gamma
///   unrecognized   otherwise.
Verdict classify(double detect, double margin, const DecisionConfig& config);

/// Full outcome of one detection decision.
struct Decision {
  Verdict verdict = Verdict::kUnrecognized;
  double detect = 0.0;                  ///< Eq. 8 value
  stats::ConfidenceInterval interval;   ///< Eq. 9 over the evidence samples
  std::size_t answers_used = 0;
};

/// Eqs. 8-10 in spec form, from scratch over one answer set: aggregates
/// the answers (Eq. 8), computes the confidence interval over the raw
/// evidence samples (Eq. 9; their count and spread determine the margin,
/// per §IV-C), and classifies (Eq. 10, `classify`). The pipeline reaches
/// the same values incrementally; tests hold it to this form.
Decision decide(std::span<const WeightedAnswer> answers,
                const DecisionConfig& config);

}  // namespace manet::trust
