#include "serve/registry.hpp"

#include <mutex>

#include "serve/request.hpp"

namespace pimecc::serve {

std::shared_ptr<const circuits::CircuitSpec> Registry::circuit(
    const std::string& name) {
  {
    std::shared_lock lock(mutex_);
    const auto it = circuits_.find(name);
    if (it != circuits_.end()) {
      stats_.circuit_hits.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  // Build outside the lock; throws for unknown names before any insert.
  auto built = std::make_shared<const circuits::CircuitSpec>(
      circuits::build_circuit(name));
  stats_.circuit_misses.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock lock(mutex_);
  auto [it, inserted] = circuits_.try_emplace(name, std::move(built));
  return it->second;  // a racing builder may have won; serve its copy
}

std::shared_ptr<const Registry::Program> Registry::row_program(
    const std::string& name, std::size_t row_width) {
  const auto key = std::make_pair(name, row_width);
  {
    std::shared_lock lock(mutex_);
    const auto it = programs_.find(key);
    if (it != programs_.end()) {
      stats_.program_hits.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  const auto spec = circuit(name);
  simpler::MapperOptions options;
  options.row_width = row_width;
  auto mapped = std::make_shared<const Program>(
      simpler::map_to_row(spec->netlist, options));
  stats_.program_misses.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock lock(mutex_);
  auto [it, inserted] = programs_.try_emplace(key, std::move(mapped));
  return it->second;
}

Registry::MachineLease Registry::acquire_machine(std::size_t n, std::size_t m) {
  const auto key = std::make_pair(n, m);
  {
    std::unique_lock lock(mutex_);
    auto it = machines_.find(key);
    if (it != machines_.end() && !it->second.idle.empty()) {
      std::unique_ptr<PooledMachine> pooled = std::move(it->second.idle.back());
      it->second.idle.pop_back();
      it->second.last_used = ++use_clock_;
      --pooled_;
      stats_.machine_reuses.fetch_add(1, std::memory_order_relaxed);
      return MachineLease(*this, n, m, std::move(pooled));
    }
  }
  arch::ArchParams params;
  params.n = n;
  params.m = m;
  auto pooled = std::make_unique<PooledMachine>(params);  // validates
  stats_.machine_builds.fetch_add(1, std::memory_order_relaxed);
  return MachineLease(*this, n, m, std::move(pooled));
}

void Registry::release_machine(std::size_t n, std::size_t m,
                               std::unique_ptr<PooledMachine> pooled) {
  std::unique_lock lock(mutex_);
  const auto key = std::make_pair(n, m);
  Pool& pool = machines_[key];
  pool.idle.push_back(std::move(pooled));
  pool.last_used = ++use_clock_;
  ++pooled_;
  // Trim the least recently used other design points, whole points first.
  while (pooled_ > kMaxPooledMachines) {
    auto lru = machines_.end();
    for (auto it = machines_.begin(); it != machines_.end(); ++it) {
      if (it->first == key) continue;
      if (lru == machines_.end() || it->second.last_used < lru->second.last_used) {
        lru = it;
      }
    }
    if (lru == machines_.end()) break;  // only this design point is pooled
    pooled_ -= lru->second.idle.size();
    machines_.erase(lru);
  }
}

std::size_t Registry::pooled_machines() const {
  std::shared_lock lock(mutex_);
  return pooled_;
}

Registry::MachineLease::~MachineLease() {
  if (registry_ != nullptr && pooled_ != nullptr) {
    registry_->release_machine(n_, m_, std::move(pooled_));
  }
}

RegistryStats Registry::stats() const {
  RegistryStats out;
  out.circuit_hits = stats_.circuit_hits.load(std::memory_order_relaxed);
  out.circuit_misses = stats_.circuit_misses.load(std::memory_order_relaxed);
  out.program_hits = stats_.program_hits.load(std::memory_order_relaxed);
  out.program_misses = stats_.program_misses.load(std::memory_order_relaxed);
  out.machine_reuses = stats_.machine_reuses.load(std::memory_order_relaxed);
  out.machine_builds = stats_.machine_builds.load(std::memory_order_relaxed);
  return out;
}

}  // namespace pimecc::serve
