/**
 * @file
 * The benchmark's metric schema, result collection and correctness
 * accounting.
 *
 * Every metric is declared once in metric_defs() with its unit and
 * direction; `--list-metrics` prints the schema so BENCHMARK.json and
 * the smoke test can be checked against it. A run's last stdout line
 * holds either every end-to-end metric (untraced run) or every
 * per-layer metric (traced run); anything else a run measures, such
 * as percentiles with their sample counts and per-phase self times,
 * goes into the detail document.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Serving engines, in the order the serve phase runs them. */
inline const std::vector<std::string> kEngines = {"fp32", "int8",
                                                  "distilled"};

/** Rule prefetchers the sim phase runs; "none" is the baseline. */
inline const std::vector<std::string> kPrefetchers = {
    "none", "isb", "stms", "domino", "bo", "stream_group"};

struct MetricDef
{
    std::string name;
    std::string unit;
    /** "higher" or "lower". */
    std::string better;
    bool end_to_end;
};

/** The full schema, end-to-end metrics first. */
const std::vector<MetricDef> &metric_defs();

/** Linear-interpolated quantile (q in [0, 1]) of sorted samples. */
double quantile_sorted(const std::vector<double> &v, double q);

double median(std::vector<double> v);

/**
 * The smallest of the timings of one piece of work repeated through a
 * run. End-to-end timings are read this way: a shared host only ever
 * adds time (a neighbour's cache and memory traffic, a descheduled
 * vCPU), in spells that come and go within seconds and can cover most
 * of a run, so the fastest repeat is the steadiest estimate of the
 * code's own cost from run to run. NaN when `v` is empty.
 */
double fastest(const std::vector<double> &v);

/**
 * Median of per-request serving latency: the midpoint of the 43.75th
 * and 56.25th percentiles of sorted samples. In a saturating loop with
 * batches of 8 every request takes one of 8 equally likely positions
 * in its batch, so the latency distribution has 8 modes of equal mass
 * and the exact median sits on the edge between the 4th and 5th,
 * jumping from one to the other on tiny shifts of their mass. This
 * estimator sits between them; on a smooth distribution it is the
 * median.
 */
double batch_median(const std::vector<double> &sorted);

/** What Report::timing() returns. */
struct Summary
{
    double median;
    double p99;
};

/**
 * Failed operations counted against attempted ones. A failed check
 * marks the run incorrect and is listed in the detail document.
 */
class Checks
{
  public:
    /** `n` operations attempted, `failed` of them failed. */
    void count(std::uint64_t n, std::uint64_t failed, const std::string &what);

    /** A whole-run property; false fails the run. */
    void expect(bool ok, const std::string &what);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    bool correct() const { return failures_.empty(); }
    const std::vector<std::string> &failures() const { return failures_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> failures_;
};

class Report
{
  public:
    /** Record a declared metric. @throws on an undeclared name. */
    void set(const std::string &name, double value);

    /** set() for a name the schema may not declare; others are kept
     *  in the detail document only. */
    void set_if_declared(const std::string &name, double value);

    /** Record a free-form detail value (not a declared metric). */
    void detail(const std::string &key, double value);

    /**
     * Record a timing's median, its highest percentile with at least
     * ten samples beyond it, and the sample count, under `key.*` in
     * the detail document. Sorts `v` in place.
     */
    Summary timing(const std::string &key, std::vector<double> v);

    /** Record a string in the detail document's `info` object. */
    void info(const std::string &key, const std::string &value);

    /**
     * The result line: `correct`, `attempted`, `failed` and the
     * end-to-end (traced = false) or per-layer (traced = true)
     * metrics. A declared metric that was never set, or is not
     * finite, fails the run.
     */
    std::string result_line(bool traced, Checks &checks) const;

    /** Everything recorded, as one JSON object. */
    std::string detail_json(const Checks &checks) const;

  private:
    std::map<std::string, double> values_;
    std::map<std::string, double> details_;
    std::map<std::string, std::string> info_;
};

}  // namespace perfbench
