/**
 * @file
 * perfbench, one workload per invocation:
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *
 * Runs one workload (compile-scale, paper-sweep, replay-storm,
 * search-frontier), prints a human-readable report, and ends with one
 * JSON line: {"correct", "attempted", "failed", "metrics"}. The exit
 * code is 0 only when every correctness check passed.
 */

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "harness.h"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "error: %s\nusage: perfbench --workload "
                 "compile-scale|paper-sweep|replay-storm|search-frontier "
                 "--seed <n> --seconds <s> --trace <0|1>\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; i++) {
        if (i + 1 >= argc)
            usage("every flag takes a value");
        std::string flag = argv[i];
        const char *value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            options.workload = value;
        } else if (flag == "--seed") {
            options.seed = std::strtoull(value, &end, 10);
        } else if (flag == "--seconds") {
            options.seconds = std::strtod(value, &end);
            if (!(options.seconds > 0.0))
                usage("--seconds must be positive");
        } else if (flag == "--trace") {
            if (std::strcmp(value, "0") != 0 &&
                std::strcmp(value, "1") != 0)
                usage("--trace takes 0 or 1");
            options.trace = value[0] == '1';
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end != nullptr && *end != '\0')
            usage(("bad value for " + flag).c_str());
    }
    if (options.workload.empty())
        usage("--workload is required");
    return options;
}

double
peakRssMb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace

int
main(int argc, char **argv)
{
    Options options = parseArgs(argc, argv);
    std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d "
                "threads=%d\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0, benchThreads());
    Outcome out;
    try {
        if (options.workload == "compile-scale")
            out = runCompileScale(options);
        else if (options.workload == "paper-sweep")
            out = runPaperSweep(options);
        else if (options.workload == "replay-storm")
            out = runReplayStorm(options);
        else if (options.workload == "search-frontier")
            out = runSearchFrontier(options);
        else
            usage(("unknown workload " + options.workload).c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    out.endToEnd["peak_rss_mb"] = peakRssMb();
    report("peak_rss_mb", out.endToEnd["peak_rss_mb"], "MB");
    return printResult(options, out) ? 0 : 1;
}
