#include "analysis/cfg.h"

#include <algorithm>

namespace wj::analysis {

namespace {

/// A dangling edge waiting for its target node: the CFG builder threads a
/// set of these through the stmt tree (think "where can control be right
/// now, and under which branch assumption did it get there").
struct Hang {
    int from;
    const Expr* guard;
    bool sense;
};

class Builder {
public:
    Cfg build(const Method& m) {
        cfg_.nodes.push_back(node(CfgNode::Kind::Entry));
        cfg_.nodes.push_back(node(CfgNode::Kind::Exit));
        auto out = genBlock(m.body, {{cfg_.entry, nullptr, true}});
        attach(out, cfg_.exit, /*back=*/false);
        return std::move(cfg_);
    }

private:
    static CfgNode node(CfgNode::Kind k) {
        CfgNode n;
        n.kind = k;
        return n;
    }

    int addNode(CfgNode n) {
        cfg_.nodes.push_back(std::move(n));
        return static_cast<int>(cfg_.nodes.size()) - 1;
    }

    void addEdge(const Hang& h, int to, bool back) {
        const int id = static_cast<int>(cfg_.edges.size());
        cfg_.edges.push_back({h.from, to, h.guard, h.sense, back});
        cfg_.nodes[h.from].succ.push_back(id);
        cfg_.nodes[to].pred.push_back(id);
    }

    void attach(const std::vector<Hang>& hs, int to, bool back) {
        for (const Hang& h : hs) addEdge(h, to, back);
    }

    std::vector<Hang> genBlock(const Block& b, std::vector<Hang> in) {
        for (const auto& st : b) in = genStmt(*st, std::move(in));
        return in;
    }

    std::vector<Hang> genStmt(const Stmt& s, std::vector<Hang> in) {
        switch (s.kind) {
        case StmtKind::If: {
            const auto& n = as<IfStmt>(s);
            CfgNode bn = node(CfgNode::Kind::Branch);
            bn.cond = n.cond.get();
            const int br = addNode(std::move(bn));
            attach(in, br, false);
            auto thenOut = genBlock(n.thenB, {{br, n.cond.get(), true}});
            auto elseOut = genBlock(n.elseB, {{br, n.cond.get(), false}});
            thenOut.insert(thenOut.end(), elseOut.begin(), elseOut.end());
            return thenOut;
        }
        case StmtKind::While: {
            const auto& n = as<WhileStmt>(s);
            CfgNode bn = node(CfgNode::Kind::Branch);
            bn.cond = n.cond.get();
            const int br = addNode(std::move(bn));
            attach(in, br, false);
            auto bodyOut = genBlock(n.body, {{br, n.cond.get(), true}});
            attach(bodyOut, br, /*back=*/true);
            return {{br, n.cond.get(), false}};
        }
        case StmtKind::For: {
            const auto& n = as<ForStmt>(s);
            CfgNode init = node(CfgNode::Kind::ForInit);
            init.forS = &n;
            const int fi = addNode(std::move(init));
            attach(in, fi, false);
            CfgNode bn = node(CfgNode::Kind::Branch);
            bn.cond = n.cond.get();
            const int br = addNode(std::move(bn));
            addEdge({fi, nullptr, true}, br, false);
            auto bodyOut = genBlock(n.body, {{br, n.cond.get(), true}});
            CfgNode step = node(CfgNode::Kind::ForStep);
            step.forS = &n;
            const int fs = addNode(std::move(step));
            attach(bodyOut, fs, false);
            addEdge({fs, nullptr, true}, br, /*back=*/true);
            return {{br, n.cond.get(), false}};
        }
        case StmtKind::Return: {
            CfgNode rn = node(CfgNode::Kind::Stmt);
            rn.stmt = &s;
            const int r = addNode(std::move(rn));
            attach(in, r, false);
            addEdge({r, nullptr, true}, cfg_.exit, false);
            return {};  // nothing falls through a return
        }
        default: {
            CfgNode sn = node(CfgNode::Kind::Stmt);
            sn.stmt = &s;
            const int id = addNode(std::move(sn));
            attach(in, id, false);
            return {{id, nullptr, true}};
        }
        }
    }

    Cfg cfg_;
};

} // namespace

Cfg Cfg::build(const Method& m) {
    Cfg cfg = Builder().build(m);
    cfg.computeRpo();
    return cfg;
}

void Cfg::computeRpo() {
    std::vector<int>& order = rpo_;
    order.clear();
    std::vector<char> seen(nodes.size(), 0);
    // Iterative postorder DFS, then reverse.
    std::vector<std::pair<int, size_t>> stack{{entry, 0}};
    seen[entry] = 1;
    while (!stack.empty()) {
        auto& [n, i] = stack.back();
        if (i < nodes[n].succ.size()) {
            const int to = edges[nodes[n].succ[i++]].to;
            if (!seen[to]) {
                seen[to] = 1;
                stack.push_back({to, 0});
            }
        } else {
            order.push_back(n);
            stack.pop_back();
        }
    }
    std::reverse(order.begin(), order.end());
}

} // namespace wj::analysis
