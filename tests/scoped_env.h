// Scoped environment overrides for tests: the translator and the runtime
// read their WJ_* switches from the environment, so a test that pins one
// sets it for its scope and restores the previous value (or its absence)
// on exit.
#pragma once

#include <cstdlib>
#include <string>

namespace wj::test {

class ScopedEnv {
public:
    /// Sets `name` to `value` for the scope; nullptr unsets it.
    ScopedEnv(const char* name, const char* value) : name_(name) {
        if (const char* old = std::getenv(name)) {
            had_ = true;
            old_ = old;
        }
        if (value) setenv(name, value, 1);
        else unsetenv(name);
    }
    /// Unsets `name` for the scope.
    explicit ScopedEnv(const char* name) : ScopedEnv(name, nullptr) {}
    ~ScopedEnv() {
        if (had_) setenv(name_, old_.c_str(), 1);
        else unsetenv(name_);
    }
    ScopedEnv(const ScopedEnv&) = delete;
    ScopedEnv& operator=(const ScopedEnv&) = delete;

private:
    const char* name_;
    bool had_ = false;
    std::string old_;
};

} // namespace wj::test
