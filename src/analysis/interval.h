// The integer interval lattice used by the bounds/shape analysis.
//
// Values are int64 intervals [lo, hi] where INT64_MIN / INT64_MAX act as
// -inf / +inf. All arithmetic saturates into the sentinels, so a chain of
// transfer functions can never wrap around and "prove" a bound it does not
// have. Because translated WJ arithmetic is C `int32_t` arithmetic (which
// wraps), results of i32 operations that leave the i32 range must be
// widened to top by the caller — see Itv::fitsI32.
#pragma once

#include <algorithm>
#include <cstdint>

namespace wj::analysis {

struct Itv {
    static constexpr int64_t kNegInf = INT64_MIN;
    static constexpr int64_t kPosInf = INT64_MAX;

    int64_t lo = kNegInf;
    int64_t hi = kPosInf;

    static Itv top() { return {}; }
    static Itv of(int64_t v) { return {v, v}; }
    static Itv range(int64_t lo, int64_t hi) { return {lo, hi}; }
    /// [lo, +inf)
    static Itv atLeast(int64_t lo) { return {lo, kPosInf}; }

    bool isConst() const { return lo == hi && lo != kNegInf && lo != kPosInf; }
    bool loFinite() const { return lo != kNegInf; }
    bool hiFinite() const { return hi != kPosInf; }
    bool fitsI32() const {
        return lo >= INT32_MIN && hi <= INT32_MAX && loFinite() && hiFinite();
    }

    bool operator==(const Itv& o) const { return lo == o.lo && hi == o.hi; }
    bool operator!=(const Itv& o) const { return !(*this == o); }

    Itv join(const Itv& o) const { return {std::min(lo, o.lo), std::max(hi, o.hi)}; }

    /// Standard widening: any bound that moved since `prev` goes to infinity.
    Itv widen(const Itv& prev) const {
        return {lo < prev.lo ? kNegInf : lo, hi > prev.hi ? kPosInf : hi};
    }

    /// Meet with `[v, +inf)`. May produce an empty interval (lo > hi) —
    /// callers treat that as an unreachable branch.
    Itv meetGe(int64_t v) const { return {std::max(lo, v), hi}; }
    bool empty() const { return lo > hi; }

    // ---- saturating arithmetic (sentinels behave as infinities)

    static int64_t satAdd(int64_t a, int64_t b) {
        if (a == kNegInf || b == kNegInf) return kNegInf;
        if (a == kPosInf || b == kPosInf) return kPosInf;
        int64_t r;
        if (__builtin_add_overflow(a, b, &r)) return b > 0 ? kPosInf : kNegInf;
        return r;
    }
    static int64_t satNeg(int64_t a) {
        if (a == kNegInf) return kPosInf;
        if (a == kPosInf) return kNegInf;
        return -a;
    }
    static int64_t satMul(int64_t a, int64_t b) {
        if (a == 0 || b == 0) return 0;
        const bool neg = (a < 0) != (b < 0);
        if (a == kNegInf || a == kPosInf || b == kNegInf || b == kPosInf) {
            return neg ? kNegInf : kPosInf;
        }
        int64_t r;
        if (__builtin_mul_overflow(a, b, &r)) return neg ? kNegInf : kPosInf;
        return r;
    }

    Itv add(const Itv& o) const { return {satAdd(lo, o.lo), satAdd(hi, o.hi)}; }
    Itv sub(const Itv& o) const { return {satAdd(lo, satNeg(o.hi)), satAdd(hi, satNeg(o.lo))}; }
    Itv neg() const { return {satNeg(hi), satNeg(lo)}; }

    Itv mul(const Itv& o) const {
        const int64_t c[4] = {satMul(lo, o.lo), satMul(lo, o.hi), satMul(hi, o.lo),
                              satMul(hi, o.hi)};
        return {*std::min_element(c, c + 4), *std::max_element(c, c + 4)};
    }

    /// C truncated remainder `a % m`. Precise only for the common wrap idiom
    /// (a >= 0, m >= 1 with a finite upper bound on |m|): result in
    /// [0, maxM - 1]; otherwise bounded by |m| - 1 when m's magnitude is
    /// known, else top.
    Itv rem(const Itv& m) const {
        const int64_t magHi = std::max(std::llabs(m.lo == kNegInf ? kPosInf : m.lo),
                                       std::llabs(m.hi == kPosInf ? kPosInf : m.hi));
        if (magHi == kPosInf || magHi == 0) return top();
        if (lo >= 0) return {0, magHi - 1};
        return {-(magHi - 1), magHi - 1};
    }
};

} // namespace wj::analysis
