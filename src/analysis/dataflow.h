// The reusable fixed-point dataflow engine: a worklist solver over a CFG,
// parameterized by an analysis client (the lattice + transfer functions).
//
// A client D provides:
//
//   using State = ...;                       // a lattice element
//   State boundary();                        // state at entry (exit, if backward)
//   State transfer(int node, State in);      // flow through one node
//   void refine(const CfgEdge& e, State& s); // assume e.guard (forward only)
//   bool join(State& into, const State& from);   // returns true if `into` grew
//                                            // (the solver passes an rvalue:
//                                            // a State&& overload may move)
//   void widen(State& s, const State& prev);     // accelerate at loop heads
//
// The solver iterates to a fixed point. Monotone clients on finite-height
// lattices terminate unaided; infinite-height domains (intervals) rely on
// widen(), which the solver invokes at back-edge targets once a node has
// been re-joined more than kWidenAfter times.
#pragma once

#include <deque>
#include <utility>
#include <vector>

#include "analysis/cfg.h"

namespace wj::analysis {

enum class Direction { Forward, Backward };

inline constexpr int kWidenAfter = 3;

template <typename D>
std::vector<typename D::State> solve(const Cfg& cfg, D& d,
                                     Direction dir = Direction::Forward) {
    const size_t n = cfg.nodes.size();
    std::vector<typename D::State> in(n);
    std::vector<int> joins(n, 0);
    const int boundaryNode = dir == Direction::Forward ? cfg.entry : cfg.exit;
    in[boundaryNode] = d.boundary();

    std::vector<char> queued(n, 0);
    std::deque<int> work;
    for (int node : cfg.rpo()) {
        work.push_back(node);
        queued[node] = 1;
    }
    if (dir == Direction::Backward) std::reverse(work.begin(), work.end());

    while (!work.empty()) {
        const int node = work.front();
        work.pop_front();
        queued[node] = 0;

        typename D::State out = d.transfer(node, in[node]);

        const auto& outEdges =
            dir == Direction::Forward ? cfg.nodes[node].succ : cfg.nodes[node].pred;
        for (size_t k = 0; k < outEdges.size(); ++k) {
            const CfgEdge& e = cfg.edges[outEdges[k]];
            const int to = dir == Direction::Forward ? e.to : e.from;
            // States are maps: copy only what the last edge cannot take
            // over, and the pre-join state only where widening reads it.
            typename D::State s = k + 1 == outEdges.size() ? std::move(out) : out;
            if (dir == Direction::Forward) d.refine(e, s);
            const bool widens = e.backEdge && joins[to] >= kWidenAfter;
            typename D::State prev = widens ? in[to] : typename D::State{};
            if (d.join(in[to], std::move(s))) {
                if (e.backEdge && ++joins[to] > kWidenAfter) d.widen(in[to], prev);
                if (!queued[to]) {
                    queued[to] = 1;
                    work.push_back(to);
                }
            }
        }
    }
    return in;
}

} // namespace wj::analysis
