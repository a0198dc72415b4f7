#include "bsst/engine.hpp"

#include "telemetry/telemetry.hpp"
#include "util/error.hpp"

namespace picp {

ComponentId Engine::add_component(std::unique_ptr<Component> component) {
  PICP_REQUIRE(component != nullptr, "null component");
  const auto id = static_cast<ComponentId>(components_.size());
  PICP_REQUIRE(component->id() == id,
               "component id must match registration order");
  components_.push_back(std::move(component));
  return id;
}

void Engine::schedule(ComponentId src, ComponentId dst, SimTime delay,
                      std::int32_t kind, std::int64_t a, std::int64_t b) {
  PICP_REQUIRE(delay >= 0.0, "cannot schedule into the past");
  PICP_REQUIRE(dst >= 0 && static_cast<std::size_t>(dst) < components_.size(),
               "unknown destination component");
  Event event;
  event.time = now_ + delay;
  event.src = src;
  event.dst = dst;
  event.kind = kind;
  event.a = a;
  event.b = b;
  queue_.push(event);
}

std::uint64_t Engine::run(std::uint64_t max_events) {
  std::uint64_t processed = 0;
  while (!queue_.empty() && processed < max_events) {
    const Event event = queue_.pop();
    PICP_ENSURE(event.time >= now_, "time went backwards");
    now_ = event.time;
    components_[static_cast<std::size_t>(event.dst)]->handle(*this, event);
    ++processed;
  }
  events_processed_ += processed;
  if (telemetry::enabled()) {
    auto& reg = telemetry::registry();
    reg.counter("des.events").add(processed);
    // Virtual (simulated) clock vs the wall clock the engine burns to
    // advance it — the DES speedup knob the paper's §VI leans on.
    reg.gauge("des.virtual_seconds").set(now_);
  }
  return processed;
}

}  // namespace picp
