#include "adapt/strategy.h"

#include <algorithm>
#include <limits>

#include "common/status.h"

namespace ma {
namespace {

/// After the initial sweep, every Nth decision picks the least-chosen
/// arm instead of the cheapest — periodic re-exploration.
constexpr u64 kExploreEvery = 16;

/// Appends arm `label<value>` unless `value` is 0 or already present.
void AddArm(std::vector<StrategyArm>* arms, const char* label, u64 value) {
  if (value == 0) return;
  for (const StrategyArm& a : *arms) {
    if (a.value == value) return;
  }
  arms->push_back({label + std::to_string(value), value});
}

}  // namespace

const char* StrategyKindName(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kThreadCount:
      return "threads";
    case StrategyKind::kBloom:
      return "bloom";
    case StrategyKind::kMorselSize:
      return "morsel";
  }
  return "?";
}

StrategyInstance::StrategyInstance(StrategyKind kind,
                                   std::vector<StrategyArm> arms)
    : kind_(kind), arms_(std::move(arms)) {
  MA_CHECK(!arms_.empty());
  base_.resize(arms_.size());
  live_.resize(arms_.size());
}

u64 StrategyInstance::TotalDecisions(size_t i) const {
  return base_[i].decisions + live_[i].decisions;
}

f64 StrategyInstance::CostOf(size_t i) const {
  const u64 tuples = base_[i].tuples + live_[i].tuples;
  const u64 cycles = base_[i].cycles + live_[i].cycles;
  if (tuples == 0) return std::numeric_limits<f64>::infinity();
  return static_cast<f64>(cycles) / static_cast<f64>(tuples);
}

int StrategyInstance::Decide() {
  int pick = -1;
  // Sweep: any arm never chosen (seeded counts as chosen) goes first.
  for (size_t i = 0; i < arms_.size(); ++i) {
    if (TotalDecisions(i) == 0) {
      pick = static_cast<int>(i);
      break;
    }
  }
  if (pick < 0 && decide_count_ % kExploreEvery == kExploreEvery - 1) {
    // Periodic re-exploration: the least-chosen arm gets a fresh look.
    size_t best = 0;
    for (size_t i = 1; i < arms_.size(); ++i) {
      if (TotalDecisions(i) < TotalDecisions(best)) best = i;
    }
    pick = static_cast<int>(best);
  }
  if (pick < 0) {
    // Exploit: lowest measured cycles/tuple; unmeasured arms are
    // infinitely expensive, ties resolve to the lowest index.
    size_t best = 0;
    for (size_t i = 1; i < arms_.size(); ++i) {
      if (CostOf(i) < CostOf(best)) best = i;
    }
    pick = static_cast<int>(best);
  }
  live_[static_cast<size_t>(pick)].decisions += 1;
  ++decide_count_;
  if (last_arm_ >= 0 && pick != last_arm_) ++switches_;
  last_arm_ = pick;
  return pick;
}

void StrategyInstance::Reward(int arm, u64 tuples, u64 cycles) {
  if (arm < 0 || static_cast<size_t>(arm) >= arms_.size()) return;
  live_[static_cast<size_t>(arm)].tuples += tuples;
  live_[static_cast<size_t>(arm)].cycles += cycles;
}

void StrategyInstance::Seed(const StrategyProfile& prior) {
  for (const StrategyProfile::Arm& pa : prior.arms) {
    for (size_t i = 0; i < arms_.size(); ++i) {
      if (arms_[i].label != pa.label) continue;
      base_[i].decisions += pa.decisions;
      base_[i].tuples += pa.tuples;
      base_[i].cycles += pa.cycles;
      break;
    }
  }
}

StrategyProfile StrategyInstance::ExportDelta(const std::string& site) const {
  StrategyProfile p;
  p.site = site;
  p.kind = kind_;
  for (size_t i = 0; i < arms_.size(); ++i) {
    if (live_[i].decisions == 0 && live_[i].tuples == 0) continue;
    p.arms.push_back({arms_[i].label, live_[i].decisions, live_[i].tuples,
                      live_[i].cycles});
  }
  return p;
}

StrategyBook::Decision StrategyBook::Decide(
    const std::string& site, StrategyKind kind,
    const std::vector<StrategyArm>& arms) {
  Decision d;
  d.key = StrategyKey(site, kind);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = instances_.find(d.key);
  if (it == instances_.end()) {
    Entry e;
    e.site = site;
    e.instance = std::make_unique<StrategyInstance>(kind, arms);
    auto seed = pending_seeds_.find(d.key);
    if (seed != pending_seeds_.end()) {
      e.instance->Seed(seed->second);
    }
    it = instances_.emplace(d.key, std::move(e)).first;
  }
  StrategyInstance* inst = it->second.instance.get();
  d.arm = inst->Decide();
  // The instance's own arm set rules (the first Decide fixed it); a
  // caller with fewer pool threads than the arm's value clamps at use.
  d.value = inst->arms()[static_cast<size_t>(d.arm)].value;
  return d;
}

void StrategyBook::Reward(const Decision& d, u64 tuples, u64 cycles) {
  if (d.arm < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = instances_.find(d.key);
  if (it == instances_.end()) return;
  it->second.instance->Reward(d.arm, tuples, cycles);
}

void StrategyBook::Seed(const std::vector<StrategyProfile>& priors) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const StrategyProfile& p : priors) {
    const std::string key = StrategyKey(p.site, p.kind);
    auto it = instances_.find(key);
    if (it != instances_.end()) {
      it->second.instance->Seed(p);
    } else {
      pending_seeds_[key] = p;
    }
  }
}

std::vector<StrategyProfile> StrategyBook::ExportDelta() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<StrategyProfile> out;
  for (const auto& [key, e] : instances_) {
    StrategyProfile p = e.instance->ExportDelta(e.site);
    if (!p.arms.empty()) out.push_back(std::move(p));
  }
  return out;
}

u64 StrategyBook::decisions() const {
  std::lock_guard<std::mutex> lock(mu_);
  u64 total = 0;
  for (const auto& [key, e] : instances_) total += e.instance->decisions();
  return total;
}

u64 StrategyBook::switches() const {
  std::lock_guard<std::mutex> lock(mu_);
  u64 total = 0;
  for (const auto& [key, e] : instances_) total += e.instance->switches();
  return total;
}

size_t StrategyBook::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return instances_.size();
}

StageStrategies::StageStrategies(StrategyBook* book, std::string site_prefix,
                                 size_t num_stages, int pool_threads,
                                 u64 morsel_size)
    : book_(book),
      site_prefix_(std::move(site_prefix)),
      own_(num_stages),
      consumers_(num_stages) {
  AddArm(&thread_arms_, "t", static_cast<u64>(std::max(pool_threads, 0)));
  AddArm(&thread_arms_, "t", 2);
  AddArm(&thread_arms_, "t", 1);
  AddArm(&morsel_arms_, "m", morsel_size);
  AddArm(&morsel_arms_, "m", morsel_size / 4);
  AddArm(&morsel_arms_, "m", morsel_size * 4);
}

StageHints StageStrategies::Decide(int stage, bool bloom_site) {
  StageHints hints;
  if (book_ == nullptr) return hints;
  const std::string site = site_prefix_ + "/s" + std::to_string(stage);
  decided_.push_back(
      {book_->Decide(site, StrategyKind::kThreadCount, thread_arms_), stage,
       false});
  hints.workers = static_cast<int>(decided_.back().decision.value);
  if (morsel_arms_.size() > 1) {  // a morsel size of 0 leaves no arm
    decided_.push_back(
        {book_->Decide(site, StrategyKind::kMorselSize, morsel_arms_), stage,
         false});
    hints.morsel_size = decided_.back().decision.value;
  }
  if (bloom_site) {
    decided_.push_back({book_->Decide(site, StrategyKind::kBloom,
                                      {{"on", 1}, {"off", 0}}),
                        stage, true});
    hints.bloom = static_cast<int>(decided_.back().decision.value);
  }
  return hints;
}

void StageStrategies::Measured(int stage, u64 rows, u64 cycles,
                               const std::vector<int>& deps) {
  if (book_ == nullptr) return;
  own_[static_cast<size_t>(stage)] = {rows, cycles};
  for (const int d : deps) {
    Work& w = consumers_[static_cast<size_t>(d)];
    w.rows += rows;
    w.cycles += cycles;
  }
}

void StageStrategies::Reward() {
  if (book_ == nullptr) return;
  for (const Decided& d : decided_) {
    const size_t s = static_cast<size_t>(d.stage);
    u64 tuples = own_[s].rows;
    u64 cycles = own_[s].cycles;
    if (d.bloom) {
      tuples += consumers_[s].rows;
      cycles += consumers_[s].cycles;
    }
    book_->Reward(d.decision, tuples, cycles);
  }
  decided_.clear();  // each decision is credited once
}

std::string StrategyKey(const std::string& site, StrategyKind kind) {
  return site + "/" + StrategyKindName(kind);
}

std::string StrategySitePrefix(u64 stable_hash) {
  static const char* hex = "0123456789abcdef";
  std::string s = "fp";
  for (int shift = 60; shift >= 0; shift -= 4) {
    s.push_back(hex[(stable_hash >> shift) & 0xf]);
  }
  return s;
}

}  // namespace ma
