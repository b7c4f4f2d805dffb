#include "orchestrator/campaign.h"

#include <algorithm>
#include <thread>

#include "common/log.h"
#include "orchestrator/journal.h"
#include "sim/subsystem.h"
#include "workload/backend.h"

namespace collie::orchestrator {

const char* to_string(Strategy s) {
  switch (s) {
    case Strategy::kSimulatedAnnealing:
      return "sa";
    case Strategy::kRandom:
      return "random";
  }
  return "?";
}

const char* to_string(ShareScope s) {
  switch (s) {
    case ShareScope::kCell:
      return "cell";
    case ShareScope::kSubsystem:
      return "subsystem";
  }
  return "?";
}

const char* to_string(ExecutionMode m) {
  switch (m) {
    case ExecutionMode::kThreads:
      return "threads";
    case ExecutionMode::kDeterministic:
      return "deterministic";
  }
  return "?";
}

std::string CampaignCell::subsystem_label() const {
  // The default pair + CC-off keeps the seed's plain-subsystem labels and
  // scopes.
  std::string out(1, subsystem);
  if (fabric != "pair") out += "@" + fabric;
  if (cc != "off") out += "+" + cc;
  return out;
}

std::string CampaignCell::scope(ShareScope share) const {
  // MFS conditions only transfer within one (subsystem, fabric, cc) space,
  // so even the widest sharing scope carries both scenarios.
  if (share == ShareScope::kSubsystem) return subsystem_label();
  return label();
}

std::string CampaignCell::label() const {
  return subsystem_label() + "/" + core::to_string(mode) + "#" +
         std::to_string(seed_ordinal);
}

sim::Subsystem CampaignCell::materialize() const {
  return sim::with_cc(sim::with_fabric(sim::subsystem(subsystem),
                                       net::fabric_scenario(fabric)),
                      nic::cc_scenario(cc));
}

Campaign::Campaign(CampaignConfig config) : config_(std::move(config)) {
  if (config_.subsystems.empty()) {
    config_.subsystems = sim::all_subsystem_ids();
  }
  if (config_.fabrics.empty()) config_.fabrics = {"pair"};
  for (const std::string& fabric : config_.fabrics) {
    net::fabric_scenario(fabric);  // throws on an unknown scenario name
  }
  if (config_.ccs.empty()) config_.ccs = {"off"};
  for (const std::string& cc : config_.ccs) {
    nic::cc_scenario(cc);  // throws on an unknown scenario name
  }
  if (config_.workers < 1) config_.workers = 1;
  if (config_.seeds_per_cell < 1) config_.seeds_per_cell = 1;
  for (const double seconds : config_.budget_cycle_seconds) {
    if (seconds <= 0.0) {
      throw std::invalid_argument("budget cycle entries must be positive");
    }
  }
  // Journal record, resume and replay need per-cell probe sequences that do
  // not depend on thread scheduling.  Threaded execution with
  // subsystem-scoped sharing is the one combination where they do (which
  // MFS a cell sees depends on insert timing), so a journal recorded that
  // way would fail to resume or replay — reject it up front instead of at
  // the first diverged probe.
  if (config_.backend_factory != nullptr &&
      config_.backend_factory->kind() == workload::BackendKind::kTrace &&
      config_.execution == ExecutionMode::kThreads &&
      config_.share == ShareScope::kSubsystem) {
    throw std::invalid_argument(
        "journal record, resume and replay need deterministic cell "
        "trajectories: use --exec deterministic or --share cell");
  }
}

namespace {

// The deterministic cell list (Campaign::plan).
std::vector<CampaignCell> plan_cells(const CampaignConfig& config) {
  std::vector<CampaignCell> cells;
  // Subsystem-major order interleaves same-subsystem cells across adjacent
  // workers under round-robin assignment, maximising concurrent sharing.
  for (const char sys : config.subsystems) {
    for (const std::string& fabric : config.fabrics) {
      for (const std::string& cc : config.ccs) {
        for (const core::GuidanceMode mode : config.modes) {
          for (int seed = 0; seed < config.seeds_per_cell; ++seed) {
            CampaignCell cell;
            cell.subsystem = sys;
            cell.fabric = fabric;
            cell.cc = cc;
            cell.mode = mode;
            cell.seed_ordinal = seed;
            cell.stream = static_cast<u64>(cells.size());
            cell.budget_seconds =
                config.budget_cycle_seconds.empty()
                    ? config.budget.seconds
                    : config.budget_cycle_seconds[cells.size() %
                          config.budget_cycle_seconds.size()];
            cells.push_back(cell);
          }
        }
      }
    }
  }
  return cells;
}

void validate_replay(const Schedule& schedule,
                     const std::vector<CampaignCell>& cells,
                     const std::vector<bool>& runnable) {
  std::vector<bool> seen(cells.size(), false);
  for (std::size_t w = 0; w < schedule.queues.size(); ++w) {
    for (std::size_t qi = 0; qi < schedule.queues[w].size(); ++qi) {
      const std::size_t i = schedule.queues[w][qi];
      if (i >= cells.size()) {
        throw std::invalid_argument(
            "replay schedule references cell index " + std::to_string(i) +
            " outside the plan");
      }
      if (seen[i]) {
        throw std::invalid_argument("replay schedule runs cell " +
                                    cells[i].label() + " twice");
      }
      seen[i] = true;
      if (!runnable[i]) {
        throw std::invalid_argument(
            "replay schedule runs warm-start-completed cell " +
            cells[i].label());
      }
      if (w < schedule.labels.size() && qi < schedule.labels[w].size() &&
          !schedule.labels[w][qi].empty() &&
          schedule.labels[w][qi] != cells[i].label()) {
        throw std::invalid_argument(
            "replay schedule was recorded against a different plan: cell " +
            std::to_string(i) + " is " + cells[i].label() + ", recorded as " +
            schedule.labels[w][qi]);
      }
      // A recording under different --hours would re-dispatch silently:
      // same labels, different budgets, different timelines and results.
      if (w < schedule.budgets.size() && qi < schedule.budgets[w].size() &&
          schedule.budgets[w][qi] > 0.0 &&
          schedule.budgets[w][qi] != cells[i].budget_seconds) {
        throw std::invalid_argument(
            "replay schedule was recorded under different budgets: cell " +
            cells[i].label() + " now has " +
            std::to_string(cells[i].budget_seconds) + " s, recorded with " +
            std::to_string(schedule.budgets[w][qi]) + " s");
      }
    }
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (runnable[i] && !seen[i]) {
      throw std::invalid_argument("replay schedule never runs cell " +
                                  cells[i].label());
    }
  }
}

// Warm-start gating: false for cells the checkpoint records as completed.
// Throws when the checkpoint's sharing policy differs from the config's.
std::vector<bool> runnable_cells(const CampaignConfig& config,
                                 const std::vector<CampaignCell>& cells) {
  std::vector<bool> runnable(cells.size(), true);
  if (config.warm_start) {
    // Scope keys only mean anything under the sharing policy they were
    // formed with; loading cell-scoped entries into a subsystem-share
    // campaign would park them under keys no view queries.
    if (config.warm_start->share != to_string(config.share)) {
      throw std::invalid_argument(
          "warm-start checkpoint was taken under --share " +
          config.warm_start->share + ", this campaign uses --share " +
          to_string(config.share));
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (config.warm_start->completed(cells[i].label())) {
        runnable[i] = false;
      }
    }
  }
  return runnable;
}

std::vector<double> cell_budgets(const std::vector<CampaignCell>& cells) {
  std::vector<double> budgets;
  budgets.reserve(cells.size());
  for (const CampaignCell& cell : cells) budgets.push_back(cell.budget_seconds);
  return budgets;
}

// The realized cell -> logical-worker schedule: a validated replay when
// config.replay is set, else LPT or round-robin over runnable cells.
// Budgets stand in for durations — searches run to their wall budget, so
// the virtual-time assignment matches reality.
Schedule plan_schedule(const CampaignConfig& config,
                       const std::vector<CampaignCell>& cells,
                       const std::vector<bool>& runnable) {
  if (config.replay) {
    validate_replay(*config.replay, cells, runnable);
    return *config.replay;
  }
  if (config.schedule == SchedulePolicy::kLpt) {
    return lpt_schedule(cell_budgets(cells), runnable, config.workers);
  }
  return round_robin_schedule(runnable, config.workers);
}

std::string substrate_of(const CampaignConfig& config) {
  return config.backend_factory != nullptr
             ? config.backend_factory->substrate()
             : "sim";
}

}  // namespace

std::vector<CampaignCell> Campaign::plan() const { return plan_cells(config_); }

// ---- RecordingStore -------------------------------------------------------

RecordingStore::RecordingStore(ConcurrentMfsPool::View& view,
                               InsertHook on_insert, ConsultHook on_consult)
    : view_(view),
      on_insert_(std::move(on_insert)),
      on_consult_(std::move(on_consult)) {}

bool RecordingStore::covers(const core::SearchSpace& space,
                            const Workload& w) {
  if (on_consult_) on_consult_();
  return view_.covers(space, w);
}

bool RecordingStore::covers_preloaded(const core::SearchSpace& space,
                                      const Workload& w) {
  if (on_consult_) on_consult_();
  return view_.covers_preloaded(space, w);
}

int RecordingStore::insert(const core::SearchSpace& space, core::Mfs mfs) {
  core::Mfs copy = mfs;
  const int index = view_.insert(space, std::move(mfs));
  copy.index = index;
  inserts_.push_back(PoolEntry{std::move(copy), view_.worker()});
  if (on_insert_) {
    on_insert_(static_cast<u64>(inserts_.size() - 1), inserts_.back());
  }
  return index;
}

PoolStats RecordingStore::delta() const {
  PoolStats delta;
  delta.entries = static_cast<i64>(inserts_.size());
  delta.hits = view_.hits();
  delta.cross_worker_hits = view_.cross_worker_hits();
  delta.warm_hits = view_.warm_hits();
  delta.duplicate_inserts = view_.duplicate_inserts();
  return delta;
}

CellResult execute_cell(const CampaignConfig& config, const CampaignCell& cell,
                        double start_seconds, RecordingStore& store,
                        CampaignJournal* progress) {
  const int worker = store.view().worker();
  CellResult cr;
  cr.cell = cell;
  cr.worker = worker;
  cr.start_seconds = start_seconds;
  cr.backend = substrate_of(config);
  // A cell that throws (bad catalog id, scenario materialization failure,
  // engine error) must not take the worker thread — and with it the whole
  // fleet — down.  It is recorded as failed; the report counts it
  // separately from covered cells.
  try {
    const sim::Subsystem sys = cell.materialize();
    workload::EngineOptions engine_opts = config.engine;
    // Nothing in the campaign reads per-epoch series; skipping the copy
    // keeps the probe loop free of per-experiment allocations.  Verdicts,
    // traces and RNG streams are unaffected.
    engine_opts.keep_epochs = false;
    engine_opts.telemetry = obs::ProbeTelemetry(config.telemetry, worker);
    engine_opts.backend_factory = config.backend_factory.get();
    engine_opts.backend_context = cell.label();
    const workload::Engine engine(sys, engine_opts);
    const core::SearchSpace space(sys);
    core::SearchDriver driver(engine, space);
    driver.set_telemetry(obs::ProbeTelemetry(config.telemetry, worker));
    if (progress != nullptr) {
      const std::string label = cell.label();
      driver.set_progress_hook(
          [progress, label](const core::DriverProgress& p) {
            progress->driver_state(label, p.to_json());
          },
          progress->every());
    }
    core::SearchBudget budget = config.budget;
    budget.seconds = cell.budget_seconds;
    // The draw a cell sees is a pure function of (campaign_seed, cell
    // index), never of which worker runs it or in what order.
    Rng rng = Rng(config.campaign_seed).split(cell.stream);

    if (config.strategy == Strategy::kSimulatedAnnealing) {
      core::SaConfig sa = config.sa;
      sa.mode = cell.mode;
      cr.result = driver.run_simulated_annealing(sa, budget, rng, store);
    } else {
      cr.result = driver.run_random(budget, rng, config.sa.use_mfs, store);
    }
    cr.cross_worker_skips = store.view().cross_worker_hits();
    cr.warm_start_skips = store.view().warm_hits();
  } catch (const std::exception& e) {
    cr.error = e.what();
    LOG_WARN << "worker " << worker << " cell " << cell.label()
             << " failed: " << cr.error;
    return cr;
  }
  LOG_DEBUG << "worker " << worker << " finished cell " << cell.label()
            << ": " << cr.result.found.size() << " anomalies, "
            << cr.result.mfs_skips << " skips (" << cr.cross_worker_skips
            << " cross-worker)";
  return cr;
}

// ---- CampaignLedger -------------------------------------------------------

CampaignLedger::CampaignLedger(const CampaignConfig& config)
    : config_(config), cells_(plan_cells(config)), pool_(config.pool) {
  pending_ = runnable_cells(config_, cells_);
  schedule_ = plan_schedule(config_, cells_, pending_);
  results_.resize(cells_.size());
  deltas_.resize(cells_.size());
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    // Default attribution (skipped/failed cells never construct an engine).
    results_[i].backend = substrate_of(config_);
    if (!pending_[i]) {
      results_[i].cell = cells_[i];
      results_[i].skipped = true;
    }
  }

  if (config_.journal != nullptr) {
    if (config_.resume != nullptr) {
      // Append-only across crashes: a resumed session appends a boundary
      // marker, never a second begin.
      config_.journal->resume_marker();
    } else {
      std::vector<std::string> labels;
      labels.reserve(cells_.size());
      for (const CampaignCell& cell : cells_) labels.push_back(cell.label());
      config_.journal->begin(to_string(config_.share),
                             to_string(config_.strategy),
                             config_.campaign_seed, schedule_.workers,
                             substrate_of(config_),
                             schedule_to_json(schedule_, labels,
                                              cell_budgets(cells_)));
    }
  }

  pool_.set_telemetry(config_.telemetry);
  if (config_.warm_start) {
    for (const auto& [scope, entries] : config_.warm_start->scopes) {
      pool_.load_scope(scope, entries);
    }
  }
  if (config_.resume != nullptr) {
    // Restore every journaled cell_done exactly once: its result verbatim
    // (plan-side cell identity), its pool delta, and its inserts —
    // origin-preserved and folded in completion order, the order the
    // original run inserted them, so re-running cells observe identical
    // MFS positions and hit attribution.  Cells that were in flight at the
    // crash stay pending and re-run.
    std::map<std::string, std::size_t> by_label;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      by_label[cells_[i].label()] = i;
    }
    for (const std::string& label : config_.resume->completion_order) {
      const auto it = by_label.find(label);
      if (it == by_label.end()) {
        throw std::invalid_argument(
            "journal records completed cell " + label +
            " which is not in this campaign's plan (journal was recorded "
            "against a different plan?)");
      }
      const std::size_t i = it->second;
      const RestoredCell& rc = config_.resume->completed.at(label);
      pool_.load_entries(cells_[i].scope(config_.share), rc.inserts);
      results_[i] = rc.result;
      results_[i].cell = cells_[i];
      deltas_[i] = rc.delta;
      pending_[i] = false;
    }
  }
}

void CampaignLedger::accept(std::size_t i, CellResult result,
                            const std::vector<PoolEntry>& inserts,
                            const PoolStats& delta, u64 lease) {
  result.cell = cells_[i];
  if (config_.journal != nullptr) {
    // Synced: once this frame is durable a resumed campaign restores the
    // cell instead of re-running (or double-counting) it.
    config_.journal->cell_done(result, inserts, delta, lease);
  }
  results_[i] = std::move(result);
  deltas_[i] = delta;
}

CampaignResult CampaignLedger::finish() {
  CampaignResult result;
  result.workers = schedule_.workers;
  result.schedule = schedule_;
  result.share = config_.share;
  result.backend = substrate_of(config_);
  // The pool supplies what it stores; hit and duplicate observations are
  // summed from the per-cell deltas (restored cells served theirs before
  // the crash, and a fleet coordinator's pool never serves a search).
  const PoolStats stored = pool_.stats();
  result.pool.entries = stored.entries;
  result.pool.warm_entries = stored.warm_entries;
  std::vector<double> worker_elapsed(
      static_cast<std::size_t>(schedule_.workers), 0.0);
  for (std::size_t i = 0; i < results_.size(); ++i) {
    const CellResult& cr = results_[i];
    result.serial_seconds += cr.result.elapsed_seconds;
    if (cr.worker >= 0 && cr.worker < schedule_.workers) {
      worker_elapsed[static_cast<std::size_t>(cr.worker)] +=
          cr.result.elapsed_seconds;
    }
    result.pool.hits += deltas_[i].hits;
    result.pool.cross_worker_hits += deltas_[i].cross_worker_hits;
    result.pool.warm_hits += deltas_[i].warm_hits;
    result.pool.duplicate_inserts += deltas_[i].duplicate_inserts;
  }
  for (const double t : worker_elapsed) {
    result.makespan_seconds = std::max(result.makespan_seconds, t);
  }
  result.pool_scopes = pool_.export_scopes();
  result.cells = std::move(results_);
  return result;
}

// ---- Campaign -------------------------------------------------------------

double Campaign::run_cell(CampaignLedger& ledger, std::size_t i, int worker,
                          double start_seconds) {
  obs::Telemetry* tel = config_.telemetry;
  if (ledger.pending(i)) {
    const u64 wall_start = tel != nullptr ? obs::now_ticks() : 0;
    const CampaignCell& cell = ledger.cells()[i];
    const std::string scope = cell.scope(config_.share);
    const std::string label = cell.label();
    ConcurrentMfsPool::View view = ledger.pool().view(scope, worker);
    CampaignJournal* journal = config_.journal;
    RecordingStore store(
        view, journal == nullptr
                  ? RecordingStore::InsertHook{}
                  : [journal, &label, &scope](u64, const PoolEntry& e) {
                      journal->mfs_batch(label, scope, e);
                    });
    CellResult cr = execute_cell(config_, cell, start_seconds, store, journal);
    if (tel != nullptr && worker < static_cast<int>(worker_ids_.size())) {
      tel->registry().add(
          worker, worker_ids_[static_cast<std::size_t>(worker)].busy_ns,
          static_cast<i64>(obs::now_ticks() - wall_start));
    }
    // Lease ids start at 1; in-process campaigns use plan index + 1 (the
    // cell's rng stream index is its plan position).
    ledger.accept(i, std::move(cr), store.inserts(), store.delta(),
                  cell.stream + 1);
  }
  const CellResult& done = ledger.result(i);
  if (tel != nullptr) {
    tel->registry().add(worker,
                        done.failed() ? cells_failed_ : cells_completed_);
  }
  note_cell_drained(worker);
  return done.result.elapsed_seconds;
}

void Campaign::setup_telemetry(const Schedule& schedule, i64 skipped_cells) {
  obs::Telemetry* tel = config_.telemetry;
  if (tel == nullptr) return;
  obs::Registry& reg = tel->registry();
  cells_completed_ = reg.counter("campaign.cells_completed");
  cells_failed_ = reg.counter("campaign.cells_failed");
  cells_skipped_ = reg.counter("campaign.cells_skipped");
  if (skipped_cells > 0) reg.add(0, cells_skipped_, skipped_cells);
  worker_ids_.clear();
  const int named = std::min(schedule.workers, kMaxWorkerInstruments);
  for (int w = 0; w < named; ++w) {
    WorkerIds ids;
    ids.busy_ns =
        reg.counter("campaign.worker." + std::to_string(w) + ".busy_ns");
    ids.queue_depth =
        reg.gauge("campaign.worker." + std::to_string(w) + ".queue_depth");
    worker_ids_.push_back(ids);
  }
  for (std::size_t w = 0;
       w < schedule.queues.size() && w < worker_ids_.size(); ++w) {
    reg.gauge_set(static_cast<int>(w), worker_ids_[w].queue_depth,
                  static_cast<i64>(schedule.queues[w].size()));
  }
}

void Campaign::note_cell_drained(int worker) {
  obs::Telemetry* tel = config_.telemetry;
  if (tel == nullptr || worker < 0 ||
      worker >= static_cast<int>(worker_ids_.size())) {
    return;
  }
  tel->registry().gauge_add(
      worker, worker_ids_[static_cast<std::size_t>(worker)].queue_depth, -1);
}

CampaignResult Campaign::run() {
  CampaignLedger ledger(config_);
  const Schedule& schedule = ledger.schedule();
  const std::size_t n = ledger.cells().size();

  i64 skipped_cells = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (ledger.result(i).skipped) ++skipped_cells;
  }
  setup_telemetry(schedule, skipped_cells);

  std::size_t queued = 0;
  for (const auto& queue : schedule.queues) queued += queue.size();
  // Physical threads: capped by the config and by the number of logical
  // queues — a recorded 4-worker schedule replays on 1 thread bit-for-bit.
  const int fleet = std::min<int>(
      {config_.workers, schedule.workers, static_cast<int>(queued)});
  if (config_.execution == ExecutionMode::kDeterministic || fleet <= 1) {
    // Virtual-time dispatch order on the calling thread with the schedule's
    // worker attribution and per-worker timelines: the reference semantics
    // every physical execution converges to.  For round-robin schedules
    // with uniform budgets this is exactly plan order (the seed behaviour).
    std::vector<double> timelines(
        static_cast<std::size_t>(schedule.workers), 0.0);
    const std::vector<int> worker_of = schedule.worker_of(n);
    for (const std::size_t i :
         dispatch_order(schedule, cell_budgets(ledger.cells()))) {
      const auto w = static_cast<std::size_t>(worker_of[i]);
      timelines[w] += run_cell(ledger, i, static_cast<int>(w), timelines[w]);
    }
  } else {
    // One physical thread drains logical queues t, t+fleet, ... — queues
    // are independent (each owns its timeline), so any fleet size yields
    // the same per-cell results under cell-scoped pools.
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(fleet));
    for (int t = 0; t < fleet; ++t) {
      threads.emplace_back([this, t, fleet, &schedule, &ledger] {
        for (std::size_t w = static_cast<std::size_t>(t);
             w < schedule.queues.size();
             w += static_cast<std::size_t>(fleet)) {
          double timeline = 0.0;
          for (const std::size_t i : schedule.queues[w]) {
            timeline += run_cell(ledger, i, static_cast<int>(w), timeline);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  return ledger.finish();
}

i64 CampaignResult::total_cross_worker_skips() const {
  i64 total = 0;
  for (const CellResult& cr : cells) total += cr.cross_worker_skips;
  return total;
}

}  // namespace collie::orchestrator
