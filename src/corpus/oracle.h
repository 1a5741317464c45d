// Ground-truth oracle: the stand-in for the paper's three security
// experts who manually verify every nearest-link candidate. The oracle
// answers "is this commit a security patch?" from the corpus generator's
// ground truth, counts every query (the paper's headline result is a
// ~66% reduction in this manual effort), and can inject label noise to
// model expert disagreement.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>

#include "corpus/repo.h"
#include "util/rng.h"

namespace patchdb::corpus {

class Oracle {
 public:
  explicit Oracle(double label_noise = 0.0, std::uint64_t seed = 1)
      : label_noise_(label_noise), rng_(seed) {}

  void add(const std::string& commit_hash, GroundTruth truth);
  void add(const CommitRecord& record) { add(record.patch.commit, record.truth); }

  /// Make room for `commits` truths, so registering a whole world does
  /// not rehash on the way.
  void reserve(std::size_t commits) { truths_.reserve(commits); }

  bool known(const std::string& commit_hash) const {
    return truths_.contains(commit_hash);
  }

  /// "Manual verification": counts toward effort; may flip the answer
  /// with probability label_noise. Throws std::out_of_range for commits
  /// the oracle never saw.
  bool verify_security(const std::string& commit_hash);

  /// Ground truth without effort accounting (for scoring benches only).
  GroundTruth truth(const std::string& commit_hash) const;

  std::size_t effort() const noexcept { return effort_; }
  void reset_effort() noexcept { effort_ = 0; }
  /// Restore a checkpointed effort count so a resumed build reports the
  /// same cumulative manual-verification cost as an uninterrupted one.
  void set_effort(std::size_t effort) noexcept { effort_ = effort; }

  std::size_t size() const noexcept { return truths_.size(); }

 private:
  double label_noise_;
  util::Rng rng_;
  std::size_t effort_ = 0;
  std::unordered_map<std::string, GroundTruth> truths_;
};

}  // namespace patchdb::corpus
