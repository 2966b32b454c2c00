#ifndef ALC_UTIL_REGISTRY_H_
#define ALC_UTIL_REGISTRY_H_

#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "util/check.h"

namespace alc::util {

/// String-keyed factory registry: the plug socket of every policy family
/// chosen by name (load controllers, routing policies, workload sources,
/// autoscalers, fault kinds). A family is an alias of this template plus a
/// `BuiltinRegistry(Registry*)` overload beside it. User code (an example
/// binary, a bench, a test) registers more factories with Register() and
/// then selects them by name in an ExperimentSpec, with no core edits.
///
/// Registration must finish before concurrent Make() calls begin (the sweep
/// runner builds policies from worker threads; the registry takes no
/// locks).
template <typename Product, typename Context>
class Registry {
 public:
  using Factory = std::function<std::unique_ptr<Product>(const Context&)>;

  /// `what` names the family in errors ("controller").
  explicit Registry(const char* what) : what_(what) {}

  /// The process-wide registry, holding the built-ins the family's
  /// `BuiltinRegistry(Registry*)` registers (found by argument-dependent
  /// lookup; the null argument only selects the family).
  static Registry& Global() {
    static Registry* const registry =
        new Registry(BuiltinRegistry(static_cast<Registry*>(nullptr)));
    return *registry;
  }

  /// False (and no change) when `name` is already taken.
  bool Register(const std::string& name, Factory factory) {
    ALC_CHECK(factory != nullptr);
    return factories_.emplace(name, std::move(factory)).second;
  }

  /// Registers `Concrete`, default-constructed whatever the context.
  template <typename Concrete>
  bool Register(const std::string& name) {
    return Register(name, [](const Context&) -> std::unique_ptr<Product> {
      return std::make_unique<Concrete>();
    });
  }

  bool Contains(const std::string& name) const {
    return factories_.count(name) > 0;
  }

  /// True when `name` is registered, else false with `error` (optional)
  /// naming it and listing the registered names.
  bool Check(const std::string& name, std::string* error) const {
    if (Contains(name)) return true;
    if (error != nullptr) {
      *error = "unknown " + std::string(what_) + " '" + name + "'; registered:";
      for (const auto& entry : factories_) *error += " " + entry.first;
    }
    return false;
  }

  /// Builds the named product; null on an unknown name, with `error` as for
  /// Check().
  std::unique_ptr<Product> Make(const std::string& name, const Context& context,
                                std::string* error = nullptr) const {
    auto it = factories_.find(name);
    if (it == factories_.end()) {
      Check(name, error);
      return nullptr;
    }
    return it->second(context);
  }

  /// Make() for a name the caller's input was already validated against
  /// (the spec tables check every policy name): a miss is a programming
  /// error, so it prints Make()'s error and aborts.
  std::unique_ptr<Product> MakeChecked(const std::string& name,
                                       const Context& context) const {
    std::string error;
    std::unique_ptr<Product> product = Make(name, context, &error);
    if (product == nullptr) {
      std::fprintf(stderr, "%s\n", error.c_str());
      ALC_CHECK(product != nullptr);
    }
    return product;
  }

 private:
  const char* what_;
  std::map<std::string, Factory> factories_;
};

}  // namespace alc::util

#endif  // ALC_UTIL_REGISTRY_H_
