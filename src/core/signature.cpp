#include "core/signature.hpp"

#include <algorithm>

namespace manet::core {

void SignatureMatcher::add_signature(Signature signature) {
  signatures_.push_back(std::move(signature));
}

std::size_t SignatureMatcher::partial_count() const { return partials_.size(); }

bool SignatureMatcher::try_extend(Partial& partial,
                                  const logging::RecordView& record) {
  const Signature& sig = signatures_[partial.signature_index];

  for (std::size_t i = 0; i < sig.steps.size(); ++i) {
    if (partial.matched[i].has_value()) continue;
    const auto& step = sig.steps[i];
    // Partial order: all prerequisite steps must already be matched.
    const bool deps_met =
        std::all_of(step.after.begin(), step.after.end(),
                    [&](std::size_t d) { return partial.matched[d].has_value(); });
    if (!deps_met) continue;
    if (!step.pattern.match(record)) continue;

    const bool correlation_was_set = partial.correlated.has_value();
    if (sig.correlate_field) {
      const auto v = record.id(*sig.correlate_field);
      if (!partial.correlated) {
        partial.correlated = v;
      } else if (*partial.correlated != v) {
        continue;
      }
    }

    partial.matched[i].emplace(record);
    // The cross-record constraint gates the assignment: if accepting this
    // record would complete the signature but fail the constraint, reject
    // it and keep waiting — another record may satisfy the step later
    // (e.g. the right HELLO pairing in interleaved traffic).
    if (sig.constraint && is_complete_except_constraint(partial) &&
        !constraint_passes(partial)) {
      partial.matched[i].reset();
      if (!correlation_was_set) partial.correlated.reset();
      continue;
    }
    return true;
  }
  return false;
}

bool SignatureMatcher::is_complete_except_constraint(
    const Partial& partial) const {
  const Signature& sig = signatures_[partial.signature_index];
  for (std::size_t i = 0; i < sig.steps.size(); ++i)
    if (!sig.steps[i].optional && !partial.matched[i].has_value()) return false;
  return true;
}

bool SignatureMatcher::constraint_passes(const Partial& partial) const {
  const Signature& sig = signatures_[partial.signature_index];
  return !sig.constraint || sig.constraint(partial.matched);
}

bool SignatureMatcher::is_complete(const Partial& partial) const {
  return is_complete_except_constraint(partial) && constraint_passes(partial);
}

std::vector<SignatureMatch> SignatureMatcher::feed(
    const logging::RecordView& record) {
  std::vector<SignatureMatch> completed;

  // Expire partials whose window has passed.
  std::erase_if(partials_, [&](const Partial& p) {
    return record.time - p.first_event > signatures_[p.signature_index].window;
  });

  // Try to extend existing partials (each record extends each partial at
  // most once, oldest partials first so bursts complete eagerly).
  for (auto& partial : partials_) {
    if (try_extend(partial, record) && is_complete(partial)) {
      const Signature& sig = signatures_[partial.signature_index];
      SignatureMatch m;
      m.signature = sig.name;
      m.first_event = partial.first_event;
      m.last_event = record.time;
      m.correlated = partial.correlated.value_or(net::NodeId{});
      for (auto& rec : partial.matched)
        if (rec.has_value()) m.records.push_back(*rec);
      completed.push_back(std::move(m));
    }
  }
  // Remove completed partials.
  std::erase_if(partials_, [&](const Partial& p) { return is_complete(p); });

  // Try to open a new partial per signature (the record may be step 0 of a
  // fresh instance even if it extended an existing one).
  for (std::size_t s = 0; s < signatures_.size(); ++s) {
    Partial fresh;
    fresh.signature_index = s;
    fresh.matched.resize(signatures_[s].steps.size());
    fresh.first_event = record.time;
    if (try_extend(fresh, record)) {
      if (is_complete(fresh)) {
        SignatureMatch m;
        m.signature = signatures_[s].name;
        m.first_event = fresh.first_event;
        m.last_event = record.time;
        m.correlated = fresh.correlated.value_or(net::NodeId{});
        for (auto& rec : fresh.matched)
          if (rec.has_value()) m.records.push_back(*rec);
        completed.push_back(std::move(m));
      } else {
        partials_.push_back(std::move(fresh));
      }
    }
  }
  return completed;
}

}  // namespace manet::core
