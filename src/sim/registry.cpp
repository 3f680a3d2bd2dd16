#include "sim/registry.hpp"

#include <algorithm>

namespace rr::sim {

namespace detail {
// Defined in sim/builtin_engines.cpp: registers every in-tree backend.
void register_builtin_engines(EngineRegistry& registry);
}  // namespace detail

EngineRegistry& EngineRegistry::instance() {
  static EngineRegistry* registry = [] {
    auto* r = new EngineRegistry();
    detail::register_builtin_engines(*r);
    return r;
  }();
  return *registry;
}

bool EngineRegistry::add(EngineSpec spec) {
  if (spec.name.empty() || spec.engine_name.empty() || !spec.factory) {
    return false;
  }
  for (const EngineSpec& existing : specs_) {
    if (existing.name == spec.name || existing.name == spec.engine_name ||
        existing.engine_name == spec.name) {
      return false;
    }
    // A shared engine_name is legal only as the declared opt-in for
    // checkpoint-interchangeable backends (EngineSpec::shares_engine_name);
    // find() stays first-match, so the original spec keeps owning
    // restores resolved by engine_name.
    if (existing.engine_name == spec.engine_name && !spec.shares_engine_name) {
      return false;
    }
  }
  specs_.push_back(std::move(spec));
  return true;
}

const EngineSpec* EngineRegistry::find(
    std::string_view name_or_engine_name) const {
  for (const EngineSpec& spec : specs_) {
    if (spec.name == name_or_engine_name ||
        spec.engine_name == name_or_engine_name) {
      return &spec;
    }
  }
  return nullptr;
}

std::vector<const EngineSpec*> EngineRegistry::list() const {
  std::vector<const EngineSpec*> out;
  out.reserve(specs_.size());
  for (const EngineSpec& spec : specs_) out.push_back(&spec);
  return out;
}

bool EngineRegistry::substrate_ok(const EngineSpec& spec,
                                  const graph::GraphDescriptor& d) {
  if (spec.substrate_kinds.empty()) return true;
  return std::find(spec.substrate_kinds.begin(), spec.substrate_kinds.end(),
                   d.kind) != spec.substrate_kinds.end();
}

namespace {

void set_error(std::string* error, std::string message) {
  if (error) *error = std::move(message);
}

/// create() preamble: name lookup + substrate check + node count
/// (factories still validate backend-specific config).
const EngineSpec* resolve(const EngineRegistry& registry,
                          std::string_view name,
                          const graph::GraphDescriptor& descriptor,
                          std::string* error) {
  const EngineSpec* spec = registry.find(name);
  if (!spec) {
    set_error(error, "unknown engine '" + std::string(name) +
                         "' (see `rr_cli engines`)");
    return nullptr;
  }
  if (!EngineRegistry::substrate_ok(*spec, descriptor)) {
    set_error(error, "engine '" + spec->name + "' needs " + spec->substrate +
                         "; got '" + descriptor.text() + "'");
    return nullptr;
  }
  if (!descriptor.num_nodes().has_value()) {
    set_error(error, "invalid graph parameters '" + descriptor.text() + "'");
    return nullptr;
  }
  return spec;
}

}  // namespace

std::unique_ptr<Engine> EngineRegistry::create(
    std::string_view name, const graph::GraphDescriptor& descriptor,
    const EngineConfig& config, std::string* error) const {
  const EngineSpec* spec = resolve(*this, name, descriptor, error);
  if (!spec) return nullptr;
  const NodeId n = *descriptor.num_nodes();
  if (config.agents.empty() || config.agents.size() > n) {
    set_error(error, "need 1 <= k <= " + std::to_string(n) + " agents");
    return nullptr;
  }
  for (NodeId a : config.agents) {
    if (a >= n) {
      set_error(error, "agent start " + std::to_string(a) +
                           " out of range (n = " + std::to_string(n) + ")");
      return nullptr;
    }
  }
  std::string factory_error;
  auto engine = spec->factory(descriptor, config, &factory_error);
  if (!engine) {
    set_error(error, factory_error.empty()
                         ? "engine '" + spec->name + "' rejected the config"
                         : factory_error);
    return nullptr;
  }
  return engine;
}

std::unique_ptr<Engine> EngineRegistry::create(
    std::string_view name, const std::string& descriptor_text,
    const EngineConfig& config, std::string* error) const {
  const auto d = graph::GraphDescriptor::parse(descriptor_text);
  if (!d) {
    set_error(error, "malformed graph descriptor '" + descriptor_text + "'");
    return nullptr;
  }
  return create(name, *d, config, error);
}

std::unique_ptr<Engine> EngineRegistry::restore(
    std::string_view engine_name, const graph::GraphDescriptor& descriptor,
    const StateReader& state, const EngineConfig& config,
    std::string* error) const {
  // The state body overwrites every per-node field, so the factory's
  // starting configuration only has to be valid: one agent on node 0.
  EngineConfig placeholder = config;
  placeholder.agents = {0};
  placeholder.pointers.clear();
  auto engine = create(engine_name, descriptor, placeholder, error);
  if (!engine) return nullptr;
  auto* io = dynamic_cast<StateIO*>(engine.get());
  if (io == nullptr || !io->deserialize_state(state)) {
    set_error(error, "state body inconsistent with engine '" +
                         std::string(engine_name) + "' on '" +
                         descriptor.text() + "'");
    return nullptr;
  }
  return engine;
}

}  // namespace rr::sim
