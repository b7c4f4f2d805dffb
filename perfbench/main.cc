// perfbench: one campaign workload per process, measured end to end or
// traced layer by layer.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir>
//
// The seed becomes the campaign seed of a generated CampaignConfig; the
// campaign receives nothing else.  Each repetition sets a campaign up and
// runs it, until --seconds have passed.  Set-up ends when the campaign
// builds its first cell's backend; the run's wall and process CPU time are
// taken from there.  Figures are medians over repetitions, and every
// repetition's report is checked against a reference.  The last stdout line
// is one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
// Exit code 1 when an output check fails, 2 on bad arguments.
//
// Simulated quantities (hours, anomalies) come from the model; host
// quantities are CPU or wall time of this process.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/report.h"
#include "fleet/fleet.h"
#include "fleet/messages.h"
#include "harness.h"
#include "obs/telemetry.h"
#include "orchestrator/campaign.h"
#include "orchestrator/campaign_report.h"
#include "orchestrator/journal.h"
#include "sim/subsystem.h"
#include "trace.h"
#include "workload/backend_sim.h"

namespace perfbench {
namespace {

namespace co = collie::orchestrator;
namespace cw = collie::workload;
using collie::core::GuidanceMode;

// ---- Workloads --------------------------------------------------------------

enum class Kind { kCatalogSa, kJournalResume, kFleet };

struct Spec {
  const char* name;
  Kind kind;
  double hours;  // simulated search budget per cell
  int replicas;  // seeds per (subsystem, mode) cell
};

// Full Table-1 catalog (A-H), simulated annealing, cell-scoped pools.
constexpr Spec kSpecs[] = {
    {"catalog_sa", Kind::kCatalogSa, 20.0, 10},
    {"journal_resume", Kind::kJournalResume, 2.5, 12},
    {"fleet_3w", Kind::kFleet, 40.0, 6},
};

co::CampaignConfig make_config(const Spec& spec, u64 seed) {
  co::CampaignConfig c;
  c.subsystems = collie::sim::all_subsystem_ids();
  c.share = co::ShareScope::kCell;
  c.strategy = co::Strategy::kSimulatedAnnealing;
  c.campaign_seed = seed;
  c.budget.seconds = spec.hours * 3600.0;
  c.seeds_per_cell = spec.replicas;
  c.engine.run_functional_pass = false;
  c.modes = {GuidanceMode::kDiag};
  if (spec.kind == Kind::kCatalogSa) {
    c.modes.push_back(GuidanceMode::kPerf);
    // One worker on the calling thread: set-up then holds no thread start,
    // whose wake-up latency on a shared host is bimodal (0.2 or 0.5 ms).
    c.workers = 1;
    c.execution = co::ExecutionMode::kDeterministic;
  } else {
    // 3 campaign workers plus the main/coordinator thread: 4 CPUs.
    c.workers = 3;
    c.execution = co::ExecutionMode::kThreads;
  }
  return c;
}

// ---- Clocks and small helpers ----------------------------------------------

double seconds_since(i64 start_ns) {
  return static_cast<double>(mono_ns() - start_ns) / 1e9;
}

// Peak resident set since reset_peak_rss(), from the kernel's high-water
// mark.
void reset_peak_rss() {
  malloc_trim(0);  // hand freed heap back to the kernel first
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  if (!clear) throw std::runtime_error("cannot reset the peak RSS");
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("VmHWM:")) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank quantile of nanosecond samples (0 when empty).
double quantile(std::vector<u64> v, double q) {
  if (v.empty()) return 0.0;
  const auto k = std::min(v.size() - 1,
                          static_cast<std::size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Catalog anomalies, labelled the way the figure benches label them:
// `count` distinct (subsystem, fabric, catalog id) over the campaign, and
// the mean over cells of the simulated hours each cell's search took to
// first find each catalog anomaly it found.
struct CatalogFinds {
  int count = 0;
  double mean_hours = 0.0;
};

CatalogFinds catalog_finds(const co::CampaignResult& result) {
  std::map<std::string, int> distinct;
  double hours = 0.0;
  int finds = 0;
  for (const co::CellResult& cr : result.cells) {
    if (cr.failed() || cr.skipped) continue;
    const std::string chip = cr.cell.materialize().nicm.chip;
    std::map<int, double> first;  // catalog id -> first discovery, s
    for (const collie::core::FoundAnomaly& f : cr.result.found) {
      const int id = collie::benchharness::identify(chip, f, cr.cell.fabric);
      if (id != 0) first.emplace(id, f.found_at_seconds);
    }
    for (const auto& [id, seconds] : first) {
      ++distinct[std::string(1, cr.cell.subsystem) + "/" + cr.cell.fabric +
                 "/" + std::to_string(id)];
      hours += seconds / 3600.0;
      ++finds;
    }
  }
  return {static_cast<int>(distinct.size()), ratio(hours, finds)};
}

// ---- One repetition ---------------------------------------------------------

struct Rep {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_mib = 0.0;  // untraced repetitions
  // Result and report are released after the checks, except for the
  // untraced reference of a traced run.
  co::CampaignResult result;
  std::string report;
  co::PoolStats pool;
  int probes = 0;       // report total_experiments
  CatalogFinds finds;
  i64 leases = 0;       // cells handed out (fleet) or run (in-process)
  i64 failed_cells = 0;
  std::set<std::string> rebuilt;  // cells whose backend was built twice
  // Journal.
  double recover_s = 0.0;
  i64 journal_bytes = 0;  // appended by this run
  i64 replayed = 0;
  i64 live = 0;
  // Fleet.
  collie::fleet::FleetStats fleet;
  i64 messages = 0;
  // Telemetry of a traced repetition.
  std::unique_ptr<collie::obs::Snapshot> snapshot;
};

// Runs one campaign behind `clock`.  Set-up is from `setup_start` until the
// first backend is built; the run's wall and process CPU time from there
// until `run` returns.
template <typename F>
void timed(Rep& r, const SetupClock& clock, i64 setup_start, F&& run) {
  run();
  const i64 w1 = mono_ns();
  const i64 c1 = process_cpu_ns();
  if (clock.first_wall_ns() == 0) {
    throw std::runtime_error("the campaign built no backend");
  }
  r.setup_s = static_cast<double>(clock.first_wall_ns() - setup_start) / 1e9;
  r.wall_s = static_cast<double>(w1 - clock.first_wall_ns()) / 1e9;
  r.cpu_s = static_cast<double>(c1 - clock.first_cpu_ns()) / 1e9;
  for (const auto& [context, builds] : clock.builds()) {
    if (builds > 1) r.rebuilt.insert(context);
  }
}

void finish(Rep& r) {
  const co::CampaignReport report = co::build_report(r.result);
  r.report = report.to_json();
  r.pool = r.result.pool;
  r.probes = report.total_experiments;
  r.finds = catalog_finds(r.result);
  const bool count_leases = r.leases == 0;  // the fleet counts its own
  for (const co::CellResult& cr : r.result.cells) {
    if (cr.failed()) ++r.failed_cells;
    if (count_leases && !cr.skipped) ++r.leases;
  }
}

std::unique_ptr<collie::obs::Telemetry> attach_telemetry(
    co::CampaignConfig& config) {
  collie::obs::TelemetryOptions topts;
  topts.workers = config.workers;
  auto telemetry = std::make_unique<collie::obs::Telemetry>(topts);
  config.telemetry = telemetry.get();
  return telemetry;
}

void keep_snapshot(Rep& r, const collie::obs::Telemetry* telemetry) {
  if (telemetry != nullptr) {
    r.snapshot = std::make_unique<collie::obs::Snapshot>(telemetry->snapshot());
  }
}

// The simulator factory of a run: timed when traced, serializing every
// `serialize_every`-th probe of each cell.
std::shared_ptr<cw::BackendFactory> sim_factory(bool traced, int shadow_at,
                                                int serialize_every) {
  auto sim = std::make_shared<cw::SimBackendFactory>();
  if (!traced) return sim;
  return std::make_shared<TimedBackendFactory>(sim, shadow_at,
                                               serialize_every);
}

// ---- Workload runners -------------------------------------------------------

class Workload {
 public:
  Workload(const Spec& spec, u64 seed, std::string dir)
      : spec_(spec), seed_(seed), dir_(std::move(dir)) {}
  virtual ~Workload() = default;

  // Untimed preparation, once per process (references, cut journals).
  virtual void prepare() {}
  // One set-up plus one campaign run.
  virtual Rep rep(bool traced) = 0;
  // What is wrong with a repetition's report ("" when nothing is).
  virtual std::string check(const Rep& r, const Rep& first) const {
    return r.report == first.report ? "" : "report differs from first run";
  }
  // A report that may differ from the reference by design (fleet
  // re-queues and steals re-attribute cells).
  virtual bool may_differ(const Rep&) const { return false; }
  // CPU seconds of the threaded in-process run of the same grid (fleet).
  virtual double threaded_cpu_s() const { return 0.0; }

  const Spec& spec() const { return spec_; }
  int workers() const { return make_config(spec_, seed_).workers; }

 protected:
  const Spec& spec_;
  u64 seed_;
  std::string dir_;
};

// catalog_sa: in-process campaign, no journal.
class CatalogSa final : public Workload {
 public:
  using Workload::Workload;

  Rep rep(bool traced) override {
    Rep r;
    co::CampaignConfig config = make_config(spec_, seed_);
    // Shadow verbs calls on the first traced run only: one per cell.
    const auto clock = std::make_shared<SetupClock>(
        sim_factory(traced, shadowed_ ? 0 : kShadowAt, kSerializeEvery));
    shadowed_ = shadowed_ || traced;
    config.backend_factory = clock;
    std::unique_ptr<collie::obs::Telemetry> telemetry;
    if (traced) telemetry = attach_telemetry(config);
    timed(r, *clock, mono_ns(),
          [&] { r.result = co::Campaign(config).run(); });
    finish(r);
    keep_snapshot(r, telemetry.get());
    return r;
  }

 private:
  static constexpr int kShadowAt = 1000;  // each cell's 1000th probe
  static constexpr int kSerializeEvery = 1024;
  bool shadowed_ = false;
};

// journal_resume: resume a journal of the same grid cut after about half
// its probe records, then journal the live half.
class JournalResume final : public Workload {
 public:
  using Workload::Workload;

  void prepare() override {
    std::filesystem::create_directories(dir_);
    const std::string full = dir_ + "/full.journal";
    std::filesystem::remove(full);
    {
      co::CampaignConfig config = make_config(spec_, seed_);
      co::CampaignJournal journal(full, kJournalEvery);
      config.journal = &journal;
      config.backend_factory =
          std::make_shared<co::SpliceBackendFactory>(nullptr, nullptr, &journal);
      reference_ = co::build_report(co::Campaign(config).run()).to_json();
    }
    // Cut after the frame holding probe record ceil(P/2): any frame prefix
    // is a resumable state, exactly what a crash leaves behind.  The
    // journal's own parser says which frames are probes, and its writer
    // frames the prefix.
    const co::JournalRecovery rec = co::recover_journal(full, false);
    if (!rec.error.empty() || rec.torn) {
      throw std::runtime_error("cannot recover " + full + " " + rec.error);
    }
    std::vector<bool> is_probe;
    for (const std::string& p : rec.payloads) {
      is_probe.push_back(co::parse_journal({p}).probes == 1);
      probes_ += is_probe.back() ? 1 : 0;
    }
    std::filesystem::remove(cut_path());
    co::JournalWriter cut(cut_path());
    i64 seen = 0;
    for (std::size_t i = 0; i < rec.payloads.size(); ++i) {
      cut.append(rec.payloads[i]);
      if (is_probe[i] && ++seen == (probes_ + 1) / 2) break;
    }
    cut.sync();
    std::filesystem::remove(full);
  }

  Rep rep(bool traced) override {
    Rep r;
    const std::string path = dir_ + "/live.journal";
    std::filesystem::remove(path + ".torn");
    // A fresh copy: not part of the program's set-up.
    std::filesystem::copy_file(cut_path(), path,
                               std::filesystem::copy_options::overwrite_existing);

    const i64 s0 = mono_ns();
    co::CampaignConfig config = make_config(spec_, seed_);
    const co::JournalRecovery rec = co::recover_journal(path, true);
    if (!rec.error.empty()) throw std::runtime_error(rec.error);
    const co::JournalResume resume = co::parse_journal(rec.payloads);
    r.recover_s = seconds_since(s0);
    if (!resume.has_begin) throw std::runtime_error("cut journal has no begin");
    config.replay = resume.schedule;
    config.resume = &resume;
    co::CampaignJournal journal(path, kJournalEvery);
    config.journal = &journal;
    auto splice = std::make_shared<co::SpliceBackendFactory>(
        traced ? sim_factory(true, 0, kSerializeEvery) : nullptr, &resume,
        &journal);
    std::shared_ptr<cw::BackendFactory> outer = splice;
    std::unique_ptr<collie::obs::Telemetry> telemetry;
    if (traced) {
      outer = std::make_shared<TimedJournalFactory>(splice);
      telemetry = attach_telemetry(config);
    }
    const auto clock = std::make_shared<SetupClock>(outer);
    config.backend_factory = clock;
    const i64 bytes_before = static_cast<i64>(journal.bytes());

    timed(r, *clock, s0, [&] { r.result = co::Campaign(config).run(); });
    finish(r);
    r.journal_bytes = static_cast<i64>(journal.bytes()) - bytes_before;
    r.replayed = splice->replayed();
    r.live = splice->live();
    keep_snapshot(r, telemetry.get());
    std::filesystem::remove(path);
    return r;
  }

  // The resume must reproduce the uninterrupted report, replay part of the
  // cut and journal exactly the probes after it.
  std::string check(const Rep& r, const Rep&) const override {
    if (r.report != reference_) {
      return "resumed report differs from the uninterrupted run";
    }
    if (r.replayed <= 0 || r.live != probes_ - (probes_ + 1) / 2) {
      return "resume replayed " + std::to_string(r.replayed) +
             " and journaled " + std::to_string(r.live) + " of " +
             std::to_string(probes_) + " probes, not the half after the cut";
    }
    return "";
  }

 private:
  static constexpr int kJournalEvery = 64;  // the CLI's --journal-every
  static constexpr int kSerializeEvery = 16;

  std::string cut_path() const { return dir_ + "/cut.journal"; }

  i64 probes_ = 0;  // probe records of the uninterrupted journal
  std::string reference_;
};

// fleet_3w: loopback fleet of 3 workers with the CLI's default heartbeat
// settings.  The threaded in-process run of the same grid is the reference
// report and the CPU baseline of the fleet's overhead.
class Fleet final : public Workload {
 public:
  using Workload::Workload;

  void prepare() override {
    Rep ref;
    co::CampaignConfig config = make_config(spec_, seed_);
    const auto clock = std::make_shared<SetupClock>(sim_factory(false, 0, 0));
    config.backend_factory = clock;
    timed(ref, *clock, mono_ns(),
          [&] { ref.result = co::Campaign(config).run(); });
    finish(ref);
    threaded_cpu_s_ = ref.cpu_s;
    reference_ = ref.report;
    for (const co::CellResult& cr : ref.result.cells) {
      reference_cells_.push_back(cell_json(cr));
    }
  }

  Rep rep(bool traced) override {
    Rep r;
    co::CampaignConfig config = make_config(spec_, seed_);
    const auto clock =
        std::make_shared<SetupClock>(sim_factory(traced, 0, kSerializeEvery));
    config.backend_factory = clock;
    std::unique_ptr<collie::obs::Telemetry> telemetry;
    if (traced) telemetry = attach_telemetry(config);
    collie::fleet::FleetRunResult fr;
    timed(r, *clock, mono_ns(),
          [&] { fr = collie::fleet::run_loopback_fleet(config); });
    r.result = std::move(fr.campaign);
    r.fleet = fr.stats;
    r.messages = fr.delivered;
    r.leases = fr.stats.leases;
    finish(r);
    keep_snapshot(r, telemetry.get());
    return r;
  }

  // Re-queued or stolen cells run on another worker than the in-process
  // schedule says, so the report may differ; they are counted
  // (ok_cell_share, fleet.requeues, fleet.stolen) instead.  A re-queued
  // cell that had started re-runs with the dead worker's extractions
  // preloaded: every cell built once must still match the in-process run.
  bool may_differ(const Rep& r) const override {
    return r.fleet.requeues > 0 || r.fleet.stolen > 0;
  }
  std::string check(const Rep& r, const Rep&) const override {
    if (!may_differ(r)) {
      return r.report == reference_
                 ? ""
                 : "fleet report differs from the in-process report";
    }
    if (r.result.cells.size() != reference_cells_.size()) {
      return "fleet ran another set of cells than the in-process run";
    }
    for (std::size_t i = 0; i < reference_cells_.size(); ++i) {
      const co::CellResult& cr = r.result.cells[i];
      if (r.rebuilt.count(cr.cell.label()) == 0 &&
          cell_json(cr) != reference_cells_[i]) {
        return "fleet cell " + cr.cell.label() +
               " differs from the in-process run";
      }
    }
    return "";
  }

  double threaded_cpu_s() const override { return threaded_cpu_s_; }

 private:
  // A cell's result, without where and when on the schedule it ran.
  static std::string cell_json(co::CellResult cr) {
    cr.worker = -1;
    cr.start_seconds = 0.0;
    collie::core::JsonWriter json;
    collie::fleet::cell_result_to_json(cr, &json);
    return json.str();
  }

  static constexpr int kSerializeEvery = 1024;

  std::string reference_;
  std::vector<std::string> reference_cells_;
  double threaded_cpu_s_ = 0.0;
};

std::unique_ptr<Workload> make_workload(const Spec& spec, u64 seed,
                                        const std::string& dir) {
  switch (spec.kind) {
    case Kind::kCatalogSa:
      return std::make_unique<CatalogSa>(spec, seed, dir);
    case Kind::kJournalResume:
      return std::make_unique<JournalResume>(spec, seed, dir);
    case Kind::kFleet:
      return std::make_unique<Fleet>(spec, seed, dir);
  }
  return nullptr;
}

// ---- Metrics ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Medians over repetitions; fleet repetitions that re-queued cells may
// differ in what they found, so rates are taken per repetition.
std::vector<Metric> end_to_end(const std::vector<Rep>& reps) {
  std::vector<double> probe_rate, find_rate, found, hours, wall, setup, peak;
  double cells_ok = 0.0, leases = 0.0;
  for (const Rep& r : reps) {
    probe_rate.push_back(ratio(r.probes, r.cpu_s));
    find_rate.push_back(ratio(r.finds.count, r.cpu_s));
    found.push_back(r.finds.count);
    hours.push_back(r.finds.mean_hours);
    wall.push_back(r.wall_s);
    setup.push_back(r.setup_s);
    peak.push_back(r.peak_mib);
    cells_ok += static_cast<double>(r.leases - r.fleet.requeues - r.failed_cells);
    leases += static_cast<double>(r.leases);
  }
  return {
      {"probes_per_cpu_s", median(probe_rate), "1/s"},
      {"anomalies_per_cpu_s", median(find_rate), "1/s"},
      {"anomalies_found", median(found), "count"},
      {"time_to_find_h", median(hours), "h"},
      {"wall_s", median(wall), "s"},
      {"setup_s", median(setup), "s"},
      {"peak_rss_mb", median(peak), "MiB"},
      {"ok_cell_share", ratio(cells_ok, leases), "ratio"},
  };
}

// Layer CPU shares are layer time over the traced runs' process CPU time,
// minus the benchmark's own work: shadow verbs calls (which verbs.*
// describe; the campaigns never run the functional pass, so verbs.cpu_share
// is 0) and serializer timing.
// sim, verbs, mfs (MatchMFS consults), journal, fleet and
// unattributed_cpu_share sum to 1; extract (necessity probes at the mean
// simulator cost, inside sim) and serialize (inside journal) are nested
// shares.  MatchMFS and
// extraction figures come from the campaigns' telemetry; its quantiles are
// log2-bucket upper edges.
std::vector<Metric> per_layer(const Workload& workload,
                              const std::vector<Rep>& traced,
                              const Rep& untraced) {
  ThreadTrace t = Tracer::instance().merged();
  const double n = static_cast<double>(traced.size());
  const double added_ns = static_cast<double>(t.added_ns);
  double cpu_total_ns = -added_ns;
  double wall_total = -added_ns / 1e9 / workload.workers();
  std::vector<double> recover;
  double journal_bytes = 0.0, replayed = 0.0, live = 0.0;
  double leases = 0.0, requeues = 0.0, misses = 0.0, dups = 0.0, stolen = 0.0,
         messages = 0.0, pool_hits = 0.0, inserts = 0.0, dup_inserts = 0.0,
         entries = 0.0;
  collie::obs::Snapshot snap;
  for (const Rep& r : traced) {
    cpu_total_ns += r.cpu_s * 1e9;
    wall_total += r.wall_s;
    if (workload.spec().kind == Kind::kJournalResume) {
      recover.push_back(r.recover_s);
    }
    journal_bytes += static_cast<double>(r.journal_bytes);
    replayed += static_cast<double>(r.replayed);
    live += static_cast<double>(r.live);
    leases += static_cast<double>(r.fleet.leases);
    requeues += static_cast<double>(r.fleet.requeues);
    misses += static_cast<double>(r.fleet.heartbeat_misses);
    dups += static_cast<double>(r.fleet.duplicates);
    stolen += static_cast<double>(r.fleet.stolen);
    messages += static_cast<double>(r.messages);
    pool_hits += static_cast<double>(r.pool.hits);
    dup_inserts += static_cast<double>(r.pool.duplicate_inserts);
    inserts += static_cast<double>(r.pool.entries + r.pool.duplicate_inserts);
    entries += static_cast<double>(r.pool.entries);
    snap.merge(*r.snapshot);
  }
  auto counter = [&snap](const std::string& name) {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto histogram = [&snap](const std::string& name) {
    const auto it = snap.histograms.find(name);
    return it == snap.histograms.end() ? collie::obs::HistogramData{}
                                       : it->second;
  };

  const collie::obs::HistogramData match = histogram("probe.stage.match_mfs_ns");
  const double consults = static_cast<double>(match.count);
  // Necessity probes: experiments outside the search's own evaluate stage.
  const double experiments = counter("probe.experiments");
  const double necessity =
      experiments -
      static_cast<double>(histogram("probe.stage.evaluate_ns").count);
  const double mfs_extracted = counter("probe.mfs_extracted");

  const double sim_calls = static_cast<double>(t.sim_ns.size());
  const double sim_mean_ns =
      ratio(static_cast<double>(t.sim_total_ns), sim_calls);
  const double verbs_calls = static_cast<double>(t.verbs_ns.size());
  const std::vector<u64>& ser = t.serialize_ns;
  double ser_mean = 0.0;
  for (const u64 v : ser) ser_mean += static_cast<double>(v);
  ser_mean = ratio(ser_mean, static_cast<double>(ser.size()));

  // Fleet overhead: untraced fleet CPU above the threaded run, per run.
  const double fleet_ns =
      workload.threaded_cpu_s() > 0.0
          ? std::max(0.0, untraced.cpu_s - workload.threaded_cpu_s()) * 1e9 * n
          : 0.0;
  const double sim_share =
      ratio(static_cast<double>(t.sim_total_ns), cpu_total_ns);
  const double mfs_share = ratio(static_cast<double>(match.sum), cpu_total_ns);
  const double journal_share =
      ratio(static_cast<double>(t.journal_total_ns), cpu_total_ns);
  const double fleet_share = ratio(fleet_ns, cpu_total_ns);

  return {
      {"sim.measure_calls", sim_calls / n, "count"},
      {"sim.measure_ns_p50", quantile(t.sim_ns, 0.50), "ns"},
      {"sim.measure_ns_p99", quantile(t.sim_ns, 0.99), "ns"},
      {"sim.cpu_share", sim_share, "ratio"},
      {"sim.remeasure_share",
       ratio(static_cast<double>(t.remeasures), sim_calls), "ratio"},
      {"verbs.validate_calls", verbs_calls, "count"},
      {"verbs.validate_ns_p50", quantile(t.verbs_ns, 0.50), "ns"},
      {"verbs.validate_ns_p99", quantile(t.verbs_ns, 0.99), "ns"},
      {"verbs.reject_share",
       ratio(static_cast<double>(t.verbs_rejects), verbs_calls), "ratio"},
      {"verbs.cpu_share", 0.0, "ratio"},
      {"mfs.covers_calls", consults / n, "count"},
      {"mfs.covers_ns_p50", static_cast<double>(match.quantile(0.50)), "ns"},
      {"mfs.covers_ns_p99", static_cast<double>(match.quantile(0.99)), "ns"},
      {"mfs.hit_share", ratio(pool_hits, consults), "ratio"},
      {"mfs.inserts", inserts / n, "count"},
      {"mfs.duplicate_inserts", dup_inserts / n, "count"},
      {"mfs.entries", entries / n, "count"},
      {"mfs.cpu_share", mfs_share, "ratio"},
      {"extract.mfs_count", mfs_extracted / n, "count"},
      {"extract.probes_per_mfs", ratio(necessity, mfs_extracted), "count"},
      {"extract.probe_share", ratio(necessity, experiments), "ratio"},
      {"extract.cpu_share", ratio(necessity * sim_mean_ns, cpu_total_ns),
       "ratio"},
      {"serialize.probe_record_ns_p50", quantile(ser, 0.50), "ns"},
      {"serialize.probe_record_ns_p99", quantile(ser, 0.99), "ns"},
      {"serialize.cpu_share",
       ratio(ser_mean * live, cpu_total_ns), "ratio"},
      {"journal.append_ns_p50", quantile(t.append_ns, 0.50), "ns"},
      {"journal.append_ns_p99", quantile(t.append_ns, 0.99), "ns"},
      {"journal.bytes_per_probe", ratio(journal_bytes, live), "B"},
      {"journal.recover_s", median(recover), "s"},
      {"journal.replayed_probes", replayed / n, "count"},
      {"journal.live_probes", live / n, "count"},
      {"journal.cpu_share", journal_share, "ratio"},
      {"journal.wait_share",
       ratio(static_cast<double>(t.journal_wait_ns) / 1e9,
             wall_total * workload.workers()),
       "ratio"},
      {"campaign.cpu_util",
       ratio(cpu_total_ns / 1e9, wall_total * workload.workers()), "ratio"},
      {"unattributed_cpu_share",
       1.0 - (sim_share + mfs_share + journal_share + fleet_share), "ratio"},
      {"fleet.leases", leases / n, "count"},
      {"fleet.requeues", requeues / n, "count"},
      {"fleet.heartbeat_misses", misses / n, "count"},
      {"fleet.duplicates", dups / n, "count"},
      {"fleet.stolen", stolen / n, "count"},
      {"fleet.messages", messages / n, "count"},
      {"fleet.cpu_share", fleet_share, "ratio"},
      {"trace.overhead", ratio(cpu_total_ns / 1e9 / n, untraced.cpu_s),
       "ratio"},
  };
}

// ---- Entry point ------------------------------------------------------------

// Keeps peak RSS one campaign's worth, not one per repetition: results go
// once checked, and only the reference keeps its report.
void release(Rep& r, bool keep_report) {
  r.result = co::CampaignResult{};
  if (!keep_report) r.report = std::string{};
}

void print_json(bool correct, i64 attempted, i64 failed,
                const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    out += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

struct Args {
  std::string workload;
  std::string work_dir;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args* a) {
  if (argc % 2 != 1) return false;
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (!key.starts_with("--")) return false;
    kv[key.substr(2)] = argv[i + 1];
  }
  for (const auto& [key, value] : kv) {
    if (key != "workload" && key != "seed" && key != "seconds" &&
        key != "trace" && key != "work-dir") {
      return false;
    }
  }
  if (!kv.count("workload") || !kv.count("work-dir")) return false;
  a->workload = kv["workload"];
  a->work_dir = kv["work-dir"];
  try {
    if (kv.count("seed")) a->seed = std::stoull(kv["seed"]);
    if (kv.count("seconds")) a->seconds = std::stod(kv["seconds"]);
  } catch (const std::exception&) {
    return false;
  }
  if (kv.count("trace")) {
    if (kv["trace"] != "0" && kv["trace"] != "1") return false;
    a->trace = kv["trace"] == "1";
  }
  return a->seconds > 0.0;
}

int run(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --work-dir <dir>\n");
    return 2;
  }
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (args.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const std::string dir = args.work_dir + "/" + spec->name;
  std::unique_ptr<Workload> workload = make_workload(*spec, args.seed, dir);
  std::vector<std::string> errors;
  auto note = [&errors](const std::string& what) {
    if (!what.empty()) errors.push_back(what);
  };

  workload->prepare();
  std::vector<Rep> reps;
  Rep untraced;
  const i64 start = mono_ns();
  if (args.trace) {
    // One untraced run first: the reference for byte identity and the
    // denominator of the tracing overhead.
    untraced = workload->rep(false);
    note(workload->check(untraced, untraced));
    release(untraced, true);
    do {
      reps.push_back(workload->rep(true));
      Rep& r = reps.back();
      note(workload->check(r, untraced));
      if (!workload->may_differ(r) && !workload->may_differ(untraced) &&
          r.report != untraced.report) {
        note("traced report differs from the untraced report");
      }
      release(r, false);
    } while (seconds_since(start) < args.seconds);
  } else {
    do {
      // Each repetition's own peak, not its preparation's or a previous
      // repetition's.
      reset_peak_rss();
      reps.push_back(workload->rep(false));
      reps.back().peak_mib = peak_rss_mib();
      note(workload->check(reps.back(), reps.front()));
      release(reps.back(), reps.size() == 1);
    } while (seconds_since(start) < args.seconds);
  }

  i64 attempted = untraced.leases;
  i64 failed = untraced.failed_cells;
  for (const Rep& r : reps) {
    attempted += r.leases;
    failed += r.failed_cells;
  }
  const std::vector<Metric> metrics =
      args.trace ? per_layer(*workload, reps, untraced) : end_to_end(reps);
  std::filesystem::remove_all(dir);

  std::fprintf(stderr, "%s seed %llu: %zu %s run(s)\n", spec->name,
               static_cast<unsigned long long>(args.seed), reps.size(),
               args.trace ? "traced" : "untraced");
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-32s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  for (const std::string& e : errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  const bool correct = errors.empty() && failed == 0;
  print_json(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
