// Accuracy measures for approximate query answers (Sec. V-A).
//
// SMAPE: mean over entries of |x - x̂| / (|x| + |x̂|), with 0/0 counted as
// 0 error (lower is better, range [0, 1]).
// Spearman correlation: Pearson correlation of the rank vectors, with
// average ranks for ties (higher is better, range [-1, 1]).

#ifndef PEGASUS_EVAL_METRICS_H_
#define PEGASUS_EVAL_METRICS_H_

#include <cstddef>
#include <vector>

namespace pegasus {

// Symmetric mean absolute percentage error. Requires equal sizes; returns
// 0 for empty vectors.
double Smape(const std::vector<double>& truth,
             const std::vector<double>& approx);

// Spearman rank correlation coefficient with average-rank tie handling.
// Returns 0 when either vector is constant.
double SpearmanCorrelation(const std::vector<double>& x,
                           const std::vector<double>& y);

// Pearson correlation coefficient. Returns 0 when either vector is
// constant.
double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y);

// Average ranks (1-based; ties share the mean of their positions).
std::vector<double> AverageRanks(const std::vector<double>& values);

// Precision@k: the fraction of the true top-k entries (by value,
// descending) that also appear in the approximate top-k. Standard measure
// for ranking-oriented similarity queries (e.g., top-k RWR). A tie
// across the k-th place keeps the lower ids (src/util/ranking.h). Returns
// 1 for k = 0; k is capped at the vector length.
double PrecisionAtK(const std::vector<double>& truth,
                    const std::vector<double>& approx, std::size_t k);

}  // namespace pegasus

#endif  // PEGASUS_EVAL_METRICS_H_
