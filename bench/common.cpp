#include "common.hpp"

#include <limits>

#include "flags.hpp"
#include "ghs/core/config_io.hpp"
#include "ghs/util/strings.hpp"

namespace ghs::bench {

CommonCli::CommonCli(std::string program, std::string description,
                     int default_iterations)
    : program_(std::move(program)), cli_(program_, std::move(description)) {
  cases_ = cli_.add_string("cases", "all", "all or comma list of C1..C4");
  iters_ = cli_.add_int("iters", default_iterations,
                        "timed repetitions per point (paper: 200)");
  elements_ = cli_.add_int(
      "elements", 0, "elements per case (0 = the paper's M)");
  csv_ = cli_.add_flag("csv", "emit CSV instead of tables");
  config_ = cli_.add_string(
      "config", "", "properties file overriding the GH200 system model");
  metrics_out_ = cli_.add_string(
      "metrics-out", "",
      "write Prometheus metrics here (+ JSON snapshot at FILE.json)");
}

CommonOptions CommonCli::parse(int argc, const char* const* argv) {
  cli_.parse_or_exit(argc, argv);
  // Listing 6/8's N is an int everywhere below.
  require_in_range(program_, "--iters", *iters_, 1,
                   std::numeric_limits<int>::max());
  require_non_negative(program_, "--elements", *elements_);
  require_writable_path(program_, *metrics_out_);
  CommonOptions options;
  options.cases = parse_flag_or_exit(program_, [this] {
    if (*cases_ == "all") return workload::all_cases();
    std::vector<workload::CaseId> cases;
    for (const auto& token : split(*cases_, ',')) {
      cases.push_back(workload::parse_case(token));
    }
    return cases;
  });
  options.iterations = static_cast<int>(*iters_);
  options.elements = *elements_;
  options.csv = *csv_;
  options.config = parse_flag_or_exit(program_, [this] {
    return config_->empty() ? core::gh200_config()
                            : core::load_system_config(*config_);
  });
  options.metrics_out = *metrics_out_;
  if (!options.metrics_out.empty()) {
    options.registry = std::make_shared<telemetry::Registry>();
  }
  return options;
}

void CommonCli::write_metrics(const CommonOptions& options) const {
  if (options.metrics_out.empty()) return;
  write_metrics_files(program_, options.metrics_out, *options.registry);
}

int iterations_overflow(const std::string& program,
                        const OverflowError& error) {
  std::cerr << program << ": --iters is too large for this run: "
            << error.what() << "\n";
  return 2;
}

void print_paper_reference(bool csv, const std::string& text) {
  if (csv) return;
  std::cout << "  [paper] " << text << "\n";
}

}  // namespace ghs::bench
