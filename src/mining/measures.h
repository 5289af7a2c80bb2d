#ifndef TARA_MINING_MEASURES_H_
#define TARA_MINING_MEASURES_H_

#include <cmath>
#include <cstdint>

namespace tara {

// Admission, the one definition of "valid under (s, c)": a rule that
// occurs rule_count times, with an antecedent that occurs
// antecedent_count times, in n transactions is valid iff
// rule_count >= MinCountForSupport(s, n) and
// AdmitsConfidence(rule_count, antecedent_count, c). This is DCTAR's
// test. Rule generation, the EPS slice, roll-up mining and the baselines
// decide validity with these functions only, so every query kind gives
// the same answer at every setting, boundaries included.

/// The smallest count that passes min_support over n transactions:
/// ceil(min_support * n), at least 1. It forgives 1e-9 of a count, so a
/// rounded decimal admits the count it names (0.07 of 100 transactions is
/// 7.000000000000001 counts). A count of 2^64 or more saturates to
/// UINT64_MAX, which no rule reaches.
inline uint64_t MinCountForSupport(double min_support, uint64_t n) {
  const double count = std::ceil(min_support * static_cast<double>(n) - 1e-9);
  // Casting a double at or past 2^64 to uint64_t is undefined.
  if (!(count < 0x1p64)) return UINT64_MAX;
  return count < 1.0 ? 1 : static_cast<uint64_t>(count);
}

/// Whether `confidence` passes min_confidence. It forgives 1e-12, so a
/// rounded decimal admits the ratio it names. A NaN threshold admits
/// nothing.
inline bool AdmitsConfidence(double confidence, double min_confidence) {
  return confidence + 1e-12 >= min_confidence;
}

/// The same test on counts; antecedent_count > 0.
inline bool AdmitsConfidence(uint64_t rule_count, uint64_t antecedent_count,
                             double min_confidence) {
  return AdmitsConfidence(static_cast<double>(rule_count) /
                              static_cast<double>(antecedent_count),
                          min_confidence);
}

/// Whether a threshold may be answered from rules mined at `floor`. Both
/// tests above are monotone in the threshold, so one at or above the
/// floor admits only mined rules and the comparison needs no tolerance;
/// one below it by any amount may admit a rule that was never mined.
inline bool ClearsFloor(double threshold, double floor) {
  return threshold >= floor;
}

/// Raw occurrence counts backing the interestingness measures of a rule
/// X ⇒ Y over a transaction range (Formulas 1-3 of the paper). Counts are
/// stored rather than ratios so measures over window unions stay exact.
struct RuleCounts {
  uint64_t rule_count = 0;        ///< |F(X ∪ Y, D, T)|
  uint64_t antecedent_count = 0;  ///< |F(X, D, T)|
  uint64_t consequent_count = 0;  ///< |F(Y, D, T)| (needed for lift only)
  uint64_t total = 0;             ///< |F(∅, D, T)| = number of transactions
};

/// Support(X ⇒ Y) = |F(X∪Y)| / |D| (Formula 1). Zero when the range is
/// empty.
inline double Support(const RuleCounts& c) {
  return c.total == 0 ? 0.0
                      : static_cast<double>(c.rule_count) /
                            static_cast<double>(c.total);
}

/// Confidence(X ⇒ Y) = |F(X∪Y)| / |F(X)| (Formula 2). Zero when the
/// antecedent never occurs.
inline double Confidence(const RuleCounts& c) {
  return c.antecedent_count == 0
             ? 0.0
             : static_cast<double>(c.rule_count) /
                   static_cast<double>(c.antecedent_count);
}

/// Lift (a.k.a. reporting ratio in pharmacovigilance, Formula 3). Zero when
/// either side never occurs.
inline double Lift(const RuleCounts& c) {
  if (c.antecedent_count == 0 || c.consequent_count == 0) return 0.0;
  return (static_cast<double>(c.rule_count) * static_cast<double>(c.total)) /
         (static_cast<double>(c.antecedent_count) *
          static_cast<double>(c.consequent_count));
}

}  // namespace tara

#endif  // TARA_MINING_MEASURES_H_
