/**
 * @file
 * voyager_perfbench — the repository benchmark program.
 *
 *   voyager_perfbench --workload W --seed N --seconds S --trace 0|1
 *                     [--size small|tiny] [--spans PATH]
 *   voyager_perfbench --list-metrics
 *
 * Runs the set-up, train, serve and sim phases on workload W's trace
 * (see bench.hpp), checks the outputs, and prints a detail line
 * (`perfbench-detail {...}`: host fingerprint, percentiles with sample
 * counts, per-phase self times, failed checks) followed by the result
 * line. With --trace 1 spans are recorded and written to PATH.
 * Exits 1 when a check failed, 2 on bad arguments.
 */
#include <cpuid.h>
#include <sched.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

namespace {

/** Workloads: the trace Voyager is trained and served on. Each is one
 *  of the sim phase's traces, whose set-up it shares. */
const std::vector<std::string> kWorkloads = {"pr", "mcf"};

std::string
cpu_brand()
{
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u)
        return "unknown";
    for (unsigned i = 0; i < 3; ++i)
        __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]);
    std::string s(reinterpret_cast<const char *>(regs), sizeof(regs));
    s = s.substr(0, s.find('\0'));
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
}

std::string
cpu_simd_flags()
{
    __builtin_cpu_init();
    std::string out;
    const auto flag = [&out](bool on, const char *name) {
        if (on)
            out += (out.empty() ? "" : " ") + std::string(name);
    };
    flag(__builtin_cpu_supports("sse4.2"), "sse4_2");
    flag(__builtin_cpu_supports("avx"), "avx");
    flag(__builtin_cpu_supports("avx2"), "avx2");
    flag(__builtin_cpu_supports("fma"), "fma");
    flag(__builtin_cpu_supports("avx512f"), "avx512f");
    flag(__builtin_cpu_supports("avx512bw"), "avx512bw");
    flag(__builtin_cpu_supports("avx512vl"), "avx512vl");
    flag(__builtin_cpu_supports("avx512vnni"), "avx512_vnni");
    return out;
}

/** The instruction sets the library was compiled for. */
std::string
compiled_isa()
{
    std::string out = "x86-64";
#ifdef __AVX2__
    out += " avx2";
#endif
#ifdef __FMA__
    out += " fma";
#endif
#ifdef __AVX512F__
    out += " avx512f";
#endif
#ifdef __AVX512VNNI__
    out += " avx512_vnni";
#endif
    return out;
}

void
fingerprint(Run &run)
{
    Report &r = run.report;
    r.info("workload", run.opt.workload);
    r.info("seed", std::to_string(run.opt.seed));
    r.info("seconds", std::to_string(run.opt.seconds));
    r.info("size", run.opt.sizes.scale ==
                           voyager::trace::gen::Scale::Tiny
                       ? "tiny"
                       : "small");
    r.info("cpu", cpu_brand());
    r.info("cpu_simd", cpu_simd_flags());
    r.info("compiled_isa", compiled_isa());
#ifdef __clang__
    r.info("compiler", std::string("clang ") + __clang_version__);
#else
    r.info("compiler", std::string("gcc ") + __VERSION__);
#endif
    r.info("build_type", PERFBENCH_BUILD_TYPE);
    r.info("voyager_native", PERFBENCH_NATIVE ? "ON" : "OFF");
}

/** The CPUs this process may run on. */
std::vector<int>
allowed_cpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
    return cpus;
}

/** Move the calling thread to `cpu`. Best effort: where the kernel
 *  refuses, the thread stays where it is and only the rotation over
 *  CPUs is lost. */
void
pin_to(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof(set), &set);
}

void
list_metrics()
{
    std::cout << "[";
    bool first = true;
    for (const MetricDef &d : metric_defs()) {
        std::cout << (first ? "\n" : ",\n") << "{\"name\": \"" << d.name
                  << "\", \"unit\": \"" << d.unit << "\", \"better\": \""
                  << d.better << "\", \"end_to_end\": "
                  << (d.end_to_end ? "true" : "false") << "}";
        first = false;
    }
    std::cout << "\n]\n";
}

Options
parse(int argc, char **argv, bool &list)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--list-metrics") {
            list = true;
            continue;
        }
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + a);
        const std::string v = argv[++i];
        if (a == "--workload") {
            if (std::find(kWorkloads.begin(), kWorkloads.end(), v) ==
                kWorkloads.end())
                throw std::invalid_argument("unknown workload " + v);
            o.workload = v;
            have_workload = true;
        } else if (a == "--seed") {
            o.seed = std::stoull(v);
        } else if (a == "--seconds") {
            o.seconds = std::stod(v);
            if (!(o.seconds > 0.0))
                throw std::invalid_argument("--seconds must be > 0");
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                throw std::invalid_argument("--trace takes 0 or 1");
            o.traced = v == "1";
        } else if (a == "--size") {
            if (v != "small" && v != "tiny")
                throw std::invalid_argument("--size takes small or tiny");
            o.sizes = v == "tiny" ? Sizes::tiny() : Sizes::small();
        } else if (a == "--spans") {
            o.spans_path = v;
        } else {
            throw std::invalid_argument("unknown flag " + a);
        }
    }
    if (!list && !have_workload)
        throw std::invalid_argument("--workload is required");
    return o;
}

int
run_main(const Options &o)
{
    Run run(o);
    fingerprint(run);
    Report &r = run.report;

    const double setup_data = run_setup(run);
    const double t0 = now_s();
    run_train(run);
    const double train_s = now_s() - t0;
    TrainPasses train(run);
    ServePhase serve(run);
    SimPhase sim(run);
    // train_online is a fixed amount of work; the training passes, the
    // serving engines and the simulator share what is left of the
    // measured time. They take turns, each running passes for a short
    // quota, so every one of them samples the whole window. Each turn
    // also moves the thread to the next CPU it may use: a neighbour
    // that crowds one core's caches for a while then slows only the
    // repeats run there, and end-to-end timings come from the fastest
    // repeat (see fastest()).
    const std::vector<int> cpus = allowed_cpus();
    r.detail("run.cpus", static_cast<double>(cpus.size()));
    const double left = std::max(0.0, o.seconds - train_s);
    const std::size_t turns = kEngines.size() + 2;
    const double quota = left / static_cast<double>(turns * 16);
    const double loop_start = now_s();
    const double end = loop_start + left;
    std::size_t turn = 0;
    for (std::size_t round = 0; round < 2 || now_s() < end; ++round)
        for (std::size_t a = 0; a < turns; ++a, ++turn) {
            if (round >= 2 && now_s() >= end)
                break;
            if (!cpus.empty())
                pin_to(cpus[turn % cpus.size()]);
            const double start = now_s();
            do {
                if (a < kEngines.size())
                    serve.pass(a);
                else if (a == kEngines.size())
                    sim.pass();
                else
                    train.pass();
            } while (now_s() - start < quota);
        }
    train.report();
    serve.report();
    sim.report();
    r.set("setup_s", setup_data + serve.setup_s());
    r.detail("run.measured_s", train_s + (now_s() - loop_start));

    if (o.traced) {
        const auto self = run.tracer.self_by_layer();
        for (const char *l : {"trace", "sim", "prefetch", "core", "nn",
                              "serve", "unattributed"}) {
            const auto it = self.find(l);
            r.set(std::string("self.") + l + "_s",
                  it == self.end() ? 0.0 : it->second);
        }
        for (const auto &[key, s] : run.tracer.self_seconds())
            r.detail("self." + key.first + "." + key.second + "_s", s);
        r.set("tracing.spans", static_cast<double>(run.tracer.spans()));
        r.detail("tracing.spans_dropped",
                 static_cast<double>(run.tracer.dropped()));
        if (!o.spans_path.empty()) {
            std::ofstream os(o.spans_path);
            run.tracer.write_json(os);
            run.checks.expect(static_cast<bool>(os),
                              "spans written to " + o.spans_path);
        }
    }

    // The result line checks that every metric was measured, so it is
    // built before the detail line reports the failures.
    const std::string result = r.result_line(o.traced, run.checks);
    std::cout << "perfbench-detail " << r.detail_json(run.checks) << "\n";
    for (const auto &f : run.checks.failures())
        std::cerr << "check failed: " << f << "\n";
    std::cout << result << std::endl;
    return run.checks.correct() ? 0 : 1;
}

}  // namespace

}  // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options o;
    bool list = false;
    try {
        o = parse(argc, argv, list);
    } catch (const std::exception &e) {
        std::cerr << "voyager_perfbench: " << e.what() << "\n";
        return 2;
    }
    if (list) {
        list_metrics();
        return 0;
    }
    try {
        return run_main(o);
    } catch (const std::exception &e) {
        std::cerr << "voyager_perfbench: " << e.what() << "\n";
        return 1;
    }
}
