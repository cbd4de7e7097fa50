#include "trust/detection.hpp"

namespace manet::trust {

double aggregate_detection(std::span<const WeightedAnswer> answers) {
  DetectionSum sum;
  for (const auto& a : answers) sum.add(a.trust, a.evidence);
  return sum.value();
}

std::string to_string(Verdict v) {
  switch (v) {
    case Verdict::kWellBehaving:
      return "well-behaving";
    case Verdict::kIntruder:
      return "intruder";
    case Verdict::kUnrecognized:
      return "unrecognized";
  }
  return "?";
}

Verdict classify(double detect, double margin, const DecisionConfig& config) {
  const double eps = config.use_confidence_interval ? margin : 0.0;
  if (detect - eps >= config.gamma && detect - eps <= 1.0)
    return Verdict::kWellBehaving;
  if (detect + eps <= -config.gamma && detect + eps >= -1.0)
    return Verdict::kIntruder;
  return Verdict::kUnrecognized;
}

Decision decide(std::span<const WeightedAnswer> answers,
                const DecisionConfig& config) {
  Decision d;
  d.answers_used = answers.size();
  d.detect = aggregate_detection(answers);
  stats::RunningStats evidence;
  for (const auto& a : answers) evidence.add(a.evidence);
  d.interval = stats::confidence_interval(evidence, config.confidence_level);
  d.verdict = classify(d.detect, d.interval.margin, config);
  return d;
}

}  // namespace manet::trust
