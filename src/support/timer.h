// Monotonic (steady_clock) timing utilities used by the JIT
// (compilation-time accounting, Table 3 of the paper), the benchmark
// harnesses, and the span tracer. Durations are immune to wall-clock
// adjustments; absolute values are meaningful only within one process.
#pragma once

#include <chrono>
#include <cstdint>

namespace wj {

/// Nanoseconds on the process's monotonic timeline — THE clock source for
/// every span timestamp (src/trace/) and, via Timer below, for every bench
/// measurement, so traces and bench numbers are directly comparable. The
/// epoch is steady_clock's (usually boot); the tracer normalizes at export.
inline int64_t nowNs() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Monotonic stopwatch. Construction starts it.
class Timer {
public:
    Timer() noexcept : start_(clock::now()) {}

    /// Restart the stopwatch.
    void reset() noexcept { start_ = clock::now(); }

    /// Elapsed seconds since construction or the last reset().
    double seconds() const noexcept {
        return std::chrono::duration<double>(clock::now() - start_).count();
    }

    /// Elapsed milliseconds.
    double millis() const noexcept { return seconds() * 1e3; }

private:
    using clock = std::chrono::steady_clock;
    clock::time_point start_;
};

} // namespace wj
