// Golden-file comparison for snapshot tests. A test renders its output as
// text and calls checkGolden(dir, name, text). Normally the text must equal
// <dir>/<name> byte for byte, and a mismatch reports the first diverging
// line. With WJ_UPDATE_GOLDEN=1 the file is rewritten instead; review the
// diff (tests/update_goldens.sh refreshes every snapshot family).
#pragma once

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace wj::test {

inline bool goldenUpdateMode() {
    const char* v = std::getenv("WJ_UPDATE_GOLDEN");
    return v && *v && std::string(v) != "0";
}

inline bool slurp(const std::string& path, std::string& out) {
    std::ifstream f(path, std::ios::binary);
    if (!f) return false;
    std::ostringstream ss;
    ss << f.rdbuf();
    out = ss.str();
    return true;
}

/// Line number (1-based) and text of the first line where a and b differ.
struct FirstDiff {
    int line = 0;
    std::string expected, actual;
};

inline FirstDiff firstDiff(const std::string& expected, const std::string& actual) {
    std::istringstream ea(expected), aa(actual);
    std::string el, al;
    FirstDiff d;
    for (int line = 1;; ++line) {
        const bool he = static_cast<bool>(std::getline(ea, el));
        const bool ha = static_cast<bool>(std::getline(aa, al));
        if (!he && !ha) break;
        if (el != al || he != ha) {
            d.line = line;
            d.expected = he ? el : "<end of file>";
            d.actual = ha ? al : "<end of file>";
            break;
        }
    }
    return d;
}

inline void checkGolden(const std::string& dir, const std::string& name,
                        const std::string& actual) {
    const std::string path = dir + "/" + name;
    if (goldenUpdateMode()) {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(f.good()) << "cannot write " << path;
        f << actual;
        std::fprintf(stderr, "[golden] updated %s (%zu bytes)\n", path.c_str(), actual.size());
        return;
    }
    std::string expected;
    ASSERT_TRUE(slurp(path, expected))
        << "missing golden file " << path
        << " — run tests/update_goldens.sh to create it, then check it in";
    if (expected == actual) return;
    const FirstDiff d = firstDiff(expected, actual);
    FAIL() << "output diverged from " << path << " at line " << d.line << "\n"
           << "  golden: " << d.expected << "\n"
           << "  actual: " << d.actual << "\n"
           << "If the change is intentional, refresh with tests/update_goldens.sh "
           << "and review the golden diff.";
}

} // namespace wj::test
