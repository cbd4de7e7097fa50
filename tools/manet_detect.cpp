// manet_detect — offline detection over recorded binary audit logs.
//
// The detection pipeline (core/pipeline.hpp) consumes an abstract
// audit-event stream; the live simulator is one producer, a recorded log is
// another. This tool closes the loop:
//
//   manet_detect record --out run.mntaudit --seed 7
//       runs the §V trust experiment with audit recording on and writes the
//       investigator's stream (header + line/round/decay frames) to disk;
//       --verdicts/--trust additionally dump the LIVE run's canonical CSVs.
//
//   manet_detect replay --log run.mntaudit --verdicts replay.csv
//       mmaps the log, rebuilds the pipeline from the header, feeds every
//       frame back, and reports throughput. The CSVs are byte-identical to
//       the live run's: cmp(1) is the equivalence check.
//
// Exit codes: 0 ok, 1 usage/IO error, 2 corrupt or version-skewed log.

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "logging/audit_log.hpp"
#include "obs/manifest.hpp"
#include "obs/obs.hpp"
#include "scenario/trust_experiment.hpp"

using namespace manet;

namespace {

void usage() {
  std::fprintf(stderr, R"(usage: manet_detect <record|replay> [options]

record options (live run with audit recording)
  --out FILE        write the binary audit log here (required)
  --seed N          replication seed (default 1)
  --nodes N         cluster size incl. attacker+investigator (default 16)
  --liars N         colluding liars among the bystanders (default 4)
  --rounds N        attack investigation rounds (default 12)
  --idle N          idle decay rounds after the attack ceases (default 4)
  --attack KIND     spoof (default) or grayhole (forwarding-audit workload)
  --drop-fraction F grayhole drop probability in [0, 1] (default 1.0 =
                    blackhole)
  --verdicts FILE   also dump the live run's verdict CSV
  --trust FILE      also dump the live run's final trust CSV

replay options (offline detection)
  --log FILE        recorded audit log to replay (required)
  --verdicts FILE   dump the replayed verdict CSV
  --trust FILE      dump the replayed final trust CSV

both commands
  --metrics FILE    write the run's metrics registry as Prometheus text
                    (run manifest in the header). Record and replay emit the
                    same manet_pipeline_* counters for the same log — the
                    snapshot is part of the equivalence surface.

exit codes: 0 ok, 1 usage/IO error, 2 corrupt log
)");
}

bool write_file(const std::string& path, const void* data, std::size_t size) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(size));
  return static_cast<bool>(out);
}

bool write_file(const std::string& path, const std::string& text) {
  return write_file(path, text.data(), text.size());
}

/// A read-only view of a whole file: mmapped when possible (the reader is
/// bounds-checked, so a corrupt frame never walks past the mapping), with a
/// plain read() fallback for filesystems that refuse to map.
class MappedFile {
 public:
  explicit MappedFile(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) throw std::runtime_error{path + ": " + std::strerror(errno)};
    struct stat st{};
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
      ::close(fd);
      throw std::runtime_error{path + ": fstat failed"};
    }
    size_ = static_cast<std::size_t>(st.st_size);
    if (size_ > 0) {
      void* p = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
      if (p != MAP_FAILED) {
        mapped_ = p;
      } else {
        fallback_.resize(size_);
        std::size_t got = 0;
        while (got < size_) {
          const ::ssize_t n =
              ::read(fd, fallback_.data() + got, size_ - got);
          if (n <= 0) {
            ::close(fd);
            throw std::runtime_error{path + ": short read"};
          }
          got += static_cast<std::size_t>(n);
        }
      }
    }
    ::close(fd);
  }
  ~MappedFile() {
    if (mapped_ != nullptr) ::munmap(mapped_, size_);
  }
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const std::uint8_t* data() const {
    return mapped_ != nullptr ? static_cast<const std::uint8_t*>(mapped_)
                              : fallback_.data();
  }
  std::size_t size() const { return size_; }

 private:
  void* mapped_ = nullptr;
  std::vector<std::uint8_t> fallback_;
  std::size_t size_ = 0;
};

struct Args {
  std::string out, log, verdicts, trust, metrics;
  std::string attack = "spoof";
  double drop_fraction = 1.0;
  std::uint64_t seed = 1;
  std::size_t nodes = 16;
  std::size_t liars = 4;
  int rounds = 12;
  int idle = 4;
};

// Whole-string number parses: a value with trailing characters, or no
// digits, is refused rather than read as its longest numeric prefix.
bool parse_u64(const char* text, std::uint64_t& out) {
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) return false;
  errno = 0;
  char* rest = nullptr;
  out = std::strtoull(text, &rest, 10);
  return *rest == '\0' && errno == 0;
}

bool parse_int(const char* text, int& out) {
  const char* digits = text[0] == '-' ? text + 1 : text;
  if (!std::isdigit(static_cast<unsigned char>(digits[0]))) return false;
  errno = 0;
  char* rest = nullptr;
  const long value = std::strtol(text, &rest, 10);
  if (*rest != '\0' || errno != 0 || value < INT_MIN || value > INT_MAX)
    return false;
  out = static_cast<int>(value);
  return true;
}

bool parse_f64(const char* text, double& out) {
  char* rest = nullptr;
  out = std::strtod(text, &rest);
  return rest != text && *rest == '\0';
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "manet_detect: %s needs a value\n", flag.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    const char* v = nullptr;
    auto bad_value = [&] {
      std::fprintf(stderr, "manet_detect: bad value for %s: '%s'\n",
                   flag.c_str(), v);
      return false;
    };
    std::uint64_t count = 0;
    if (flag == "--out") {
      if ((v = value()) == nullptr) return false;
      args.out = v;
    } else if (flag == "--log") {
      if ((v = value()) == nullptr) return false;
      args.log = v;
    } else if (flag == "--verdicts") {
      if ((v = value()) == nullptr) return false;
      args.verdicts = v;
    } else if (flag == "--trust") {
      if ((v = value()) == nullptr) return false;
      args.trust = v;
    } else if (flag == "--metrics") {
      if ((v = value()) == nullptr) return false;
      args.metrics = v;
    } else if (flag == "--seed") {
      if ((v = value()) == nullptr) return false;
      if (!parse_u64(v, args.seed)) return bad_value();
    } else if (flag == "--nodes") {
      if ((v = value()) == nullptr) return false;
      if (!parse_u64(v, count)) return bad_value();
      args.nodes = count;
    } else if (flag == "--liars") {
      if ((v = value()) == nullptr) return false;
      if (!parse_u64(v, count)) return bad_value();
      args.liars = count;
    } else if (flag == "--rounds") {
      if ((v = value()) == nullptr) return false;
      if (!parse_int(v, args.rounds)) return bad_value();
    } else if (flag == "--idle") {
      if ((v = value()) == nullptr) return false;
      if (!parse_int(v, args.idle)) return bad_value();
    } else if (flag == "--attack") {
      if ((v = value()) == nullptr) return false;
      args.attack = v;
      if (args.attack != "spoof" && args.attack != "grayhole") {
        std::fprintf(stderr, "manet_detect: --attack must be spoof|grayhole\n");
        return false;
      }
    } else if (flag == "--drop-fraction") {
      if ((v = value()) == nullptr) return false;
      // The negated >= form also refuses NaN.
      if (!parse_f64(v, args.drop_fraction) ||
          !(args.drop_fraction >= 0.0 && args.drop_fraction <= 1.0))
        return bad_value();
    } else if (flag == "--help" || flag == "-h") {
      usage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "manet_detect: unknown option %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

obs::RunManifest detect_manifest(const char* command, const Args& args) {
  obs::RunManifest m{"manet_detect"};
  m.add("command", command);
  if (std::strcmp(command, "record") == 0) {
    m.add("seed", args.seed);
    m.add("nodes", static_cast<std::uint64_t>(args.nodes));
    m.add("liars", static_cast<std::uint64_t>(args.liars));
    m.add("rounds", static_cast<std::uint64_t>(args.rounds));
    m.add("idle", static_cast<std::uint64_t>(args.idle));
    m.add("attack", args.attack);
  } else {
    m.add("log", args.log);
  }
  return m;
}

int cmd_record(const Args& args) {
  if (args.out.empty()) {
    std::fprintf(stderr, "manet_detect record: --out is required\n");
    return 1;
  }
  if (args.rounds < 0 || args.idle < 0) {
    std::fprintf(stderr,
                 "manet_detect record: --rounds and --idle must not be "
                 "negative\n");
    return 1;
  }
  // The metrics registry records for the whole live run; the pipeline
  // counters it collects are the same ones cmd_replay collects from the
  // recorded stream, so the two snapshots are directly diffable.
  obs::Context obs_ctx;
  obs::Scope obs_scope{&obs_ctx};

  scenario::TrustExperiment::Config config;
  config.seed = args.seed;
  config.num_nodes = args.nodes;
  config.num_liars = args.liars;
  config.record_audit = true;
  if (args.attack == "grayhole") {
    config.attack = scenario::TrustExperiment::AttackKind::kGrayhole;
    config.drop_fraction = args.drop_fraction;
  }

  try {
    scenario::TrustExperiment exp{config};
    exp.setup();
    exp.run_attack_rounds(args.rounds);
    exp.cease_attack();
    for (int i = 0; i < args.idle; ++i) exp.run_idle_round();
    // Flush log lines recorded after the last scan into the live pipeline
    // so its kPipelineLines counter covers the same frames a replay
    // consumes. Pure liveness-map bookkeeping — no RNG, trust, or audit-log
    // effects.
    exp.detector().feed_log_growth();

    const auto bytes = exp.audit_log();
    if (!write_file(args.out, bytes.data(), bytes.size())) {
      std::fprintf(stderr, "manet_detect record: cannot write %s\n",
                   args.out.c_str());
      return 1;
    }
    if (!args.verdicts.empty() &&
        !write_file(args.verdicts,
                    core::verdict_csv(exp.detector().reports()))) {
      std::fprintf(stderr, "manet_detect record: cannot write %s\n",
                   args.verdicts.c_str());
      return 1;
    }
    if (!args.trust.empty() &&
        !write_file(args.trust,
                    core::trust_csv(exp.detector().trust_store()))) {
      std::fprintf(stderr, "manet_detect record: cannot write %s\n",
                   args.trust.c_str());
      return 1;
    }
    if (!args.metrics.empty()) {
      const auto snap = obs_ctx.snapshot();
      const auto manifest = detect_manifest("record", args);
      if (!write_file(args.metrics,
                      snap.to_prometheus(manifest.comment_header()))) {
        std::fprintf(stderr, "manet_detect record: cannot write %s\n",
                     args.metrics.c_str());
        return 1;
      }
    }
    std::fprintf(stderr,
                 "recorded %zu bytes (%d rounds + %d idle, seed %llu) to %s\n",
                 bytes.size(), args.rounds, args.idle,
                 static_cast<unsigned long long>(args.seed), args.out.c_str());
    return 0;
  } catch (const std::exception& e) {
    // A config the experiment refuses (too few nodes, too many liars).
    std::fprintf(stderr, "manet_detect record: %s\n", e.what());
    return 1;
  }
}

int cmd_replay(const Args& args) {
  if (args.log.empty()) {
    std::fprintf(stderr, "manet_detect replay: --log is required\n");
    return 1;
  }
  try {
    const MappedFile file{args.log};
    const auto start = std::chrono::steady_clock::now();

    // The replay's frame tallies come from the same metrics registry the
    // live run feeds — one instrumentation point (the pipeline's consume_*
    // paths), two producers, identical named counters.
    obs::Context obs_ctx;
    obs::Scope obs_scope{&obs_ctx};

    core::AuditStreamReader stream{file.data(), file.size()};
    auto pipeline = core::pipeline_from_header(stream.header());
    core::AuditEvent event;
    while (stream.next(event)) pipeline.consume(event);

    const auto elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    const auto snap = obs_ctx.snapshot();
    const auto lines =
        snap.counter_value(obs::hot_name(obs::Hot::kPipelineLines));
    const auto rounds =
        snap.counter_value(obs::hot_name(obs::Hot::kPipelineRounds));
    const auto decays =
        snap.counter_value(obs::hot_name(obs::Hot::kPipelineDecays));
    const auto audits =
        snap.counter_value(obs::hot_name(obs::Hot::kPipelineForwardAudits));
    if (!args.verdicts.empty() &&
        !write_file(args.verdicts, core::verdict_csv(pipeline.reports()))) {
      std::fprintf(stderr, "manet_detect replay: cannot write %s\n",
                   args.verdicts.c_str());
      return 1;
    }
    if (!args.trust.empty() &&
        !write_file(args.trust, core::trust_csv(pipeline.trust_store()))) {
      std::fprintf(stderr, "manet_detect replay: cannot write %s\n",
                   args.trust.c_str());
      return 1;
    }
    if (!args.metrics.empty()) {
      const auto manifest = detect_manifest("replay", args);
      if (!write_file(args.metrics,
                      snap.to_prometheus(manifest.comment_header()))) {
        std::fprintf(stderr, "manet_detect replay: cannot write %s\n",
                     args.metrics.c_str());
        return 1;
      }
    }

    std::uint64_t convictions = 0;
    for (const auto& r : pipeline.reports())
      if (r.verdict == trust::Verdict::kIntruder) ++convictions;
    const std::uint64_t total = lines + rounds + decays + audits;
    std::fprintf(stderr,
                 "replayed %llu frames (%llu lines, %llu rounds, %llu decays, "
                 "%llu audits) in %.3fs — %.0f records/s; %zu reports, "
                 "%llu convictions, %llu suppressed\n",
                 static_cast<unsigned long long>(total),
                 static_cast<unsigned long long>(lines),
                 static_cast<unsigned long long>(rounds),
                 static_cast<unsigned long long>(decays),
                 static_cast<unsigned long long>(audits), elapsed,
                 elapsed > 0 ? static_cast<double>(total) / elapsed : 0.0,
                 pipeline.reports().size(),
                 static_cast<unsigned long long>(convictions),
                 static_cast<unsigned long long>(
                     pipeline.degradation().suppressed_convictions));
    return 0;
  } catch (const logging::AuditError& e) {
    std::fprintf(stderr, "manet_detect replay: corrupt log: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "manet_detect replay: %s\n", e.what());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  const std::string command = argv[1];
  Args args;
  if (!parse_args(argc, argv, args)) return 1;
  if (command == "record") return cmd_record(args);
  if (command == "replay") return cmd_replay(args);
  usage();
  return 1;
}
