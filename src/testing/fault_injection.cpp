#include "testing/fault_injection.hpp"

#include <atomic>
#include <mutex>
#include <new>
#include <thread>
#include <unordered_map>

#include "sim/cancel.hpp"
#include "util/check.hpp"

namespace dec::fault {

namespace {

struct PointState {
  FaultPlan plan;
  std::int64_t hits = 0;
  std::int64_t fired = 0;
};

// One global registry. The armed-plan count is kept in a separate relaxed
// atomic so that unarmed runs never touch the mutex (hit() fast path).
std::mutex& registry_mu() {
  static std::mutex mu;
  return mu;
}

std::unordered_map<std::string, PointState>& registry() {
  static std::unordered_map<std::string, PointState> points;
  return points;
}

std::atomic<int>& armed_count() {
  static std::atomic<int> count{0};
  return count;
}

bool should_fire(const PointState& st, std::int64_t hit_index) {
  if (hit_index < st.plan.fire_at) return false;
  if (hit_index == st.plan.fire_at) return true;
  if (st.plan.period <= 0) return false;
  return (hit_index - st.plan.fire_at) % st.plan.period == 0;
}

}  // namespace

void arm(const std::string& point, FaultPlan plan) {
  std::lock_guard<std::mutex> lock(registry_mu());
  auto& points = registry();
  if (points.find(point) == points.end()) {
    armed_count().fetch_add(1, std::memory_order_relaxed);
  }
  points[point] = PointState{plan, 0, 0};
}

void disarm_all() {
  std::lock_guard<std::mutex> lock(registry_mu());
  registry().clear();
  armed_count().store(0, std::memory_order_relaxed);
}

std::int64_t hits(const std::string& point) {
  std::lock_guard<std::mutex> lock(registry_mu());
  const auto& points = registry();
  const auto it = points.find(point);
  return it == points.end() ? 0 : it->second.hits;
}

std::int64_t fired(const std::string& point) {
  std::lock_guard<std::mutex> lock(registry_mu());
  const auto& points = registry();
  const auto it = points.find(point);
  return it == points.end() ? 0 : it->second.fired;
}

namespace {
std::atomic<bool>& full_visit_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}
}  // namespace

void set_full_visit_check(bool on) {
  full_visit_flag().store(on, std::memory_order_relaxed);
}

bool full_visit_check() {
  return full_visit_flag().load(std::memory_order_relaxed);
}

bool enabled() {
  return armed_count().load(std::memory_order_relaxed) != 0;
}

void hit(const char* point, CancelToken* token) {
  if (!enabled()) return;
  FaultPlan plan;
  {
    std::lock_guard<std::mutex> lock(registry_mu());
    auto& points = registry();
    const auto it = points.find(point);
    if (it == points.end()) return;
    PointState& st = it->second;
    const std::int64_t index = st.hits++;
    if (!should_fire(st, index)) return;
    ++st.fired;
    plan = st.plan;
  }
  // Act outside the lock: sleeping or unwinding with the registry locked
  // would serialize unrelated sites (and throwing out of a locked scope is
  // just asking for surprises in future edits).
  switch (plan.action) {
    case Action::kThrowTransient:
      throw TransientError(std::string("injected transient fault at ") +
                           point);
    case Action::kAllocFail:
      throw std::bad_alloc();
    case Action::kDelay:
      std::this_thread::sleep_for(plan.delay);
      return;
    case Action::kCancel:
      if (token != nullptr) token->request_cancel();
      return;
  }
}

}  // namespace dec::fault
