/**
 * @file
 * Golden-figure regression tests: the envelope data of cheap
 * exhibits (fig03 single-level, fig05 two-level, and the exclusive
 * two-level figures 22–26 that are the paper's contribution),
 * computed on a small synthetic workload, is pinned against
 * checked-in golden files under tests/golden/. Future performance
 * work — parallelism, cache-layout changes, memoization rewrites —
 * cannot silently move the paper's figures: any drift beyond a small
 * numeric tolerance fails here.
 *
 * To regenerate after an INTENTIONAL model change:
 *   TLC_UPDATE_GOLDEN=1 build/tests/test_parallel \
 *       --gtest_filter='GoldenFigures.*'
 * and commit the rewritten files with the change that explains them.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/explorer.hh"
#include "core/figures.hh"

using namespace tlc;

namespace {

/// Small but representative: warmup engages and every design point
/// sees enough references that miss counts are stable.
constexpr std::uint64_t kGoldenRefs = 60000;

/// Relative tolerance on area/TPI. The simulation itself is
/// bit-deterministic; the slack only absorbs floating-point
/// differences across compilers and math libraries.
constexpr double kRelTol = 1e-6;

struct GoldenRow
{
    std::string label;
    double area = 0;
    double tpi = 0;
};

std::string
goldenPath(const std::string &name)
{
    return std::string(TLC_GOLDEN_DIR) + "/" + name;
}

std::vector<GoldenRow>
computeEnvelope(const std::string &figure_id, Benchmark b,
                bool two_level)
{
    const FigureSpec &spec = figureById(figure_id);
    MissRateEvaluator ev(kGoldenRefs);
    Explorer ex(ev);
    Envelope env = Explorer::envelopeOf(
        ex.sweep(b, spec.assume, true, two_level));
    std::vector<GoldenRow> rows;
    for (const auto &p : env.points())
        rows.push_back({p.label, p.area, p.tpi});
    return rows;
}

void
writeGolden(const std::string &path, const std::string &figure_id,
            const std::vector<GoldenRow> &rows)
{
    std::ofstream os(path);
    ASSERT_TRUE(os) << "cannot write " << path;
    os << "# golden envelope of " << figure_id << " at "
       << kGoldenRefs << " refs (label area_rbe tpi_ns)\n";
    char buf[128];
    for (const auto &r : rows) {
        std::snprintf(buf, sizeof buf, "%s %.12g %.12g\n",
                      r.label.c_str(), r.area, r.tpi);
        os << buf;
    }
}

std::vector<GoldenRow>
readGolden(const std::string &path)
{
    std::ifstream is(path);
    EXPECT_TRUE(is) << "missing golden file " << path
                    << " — regenerate with TLC_UPDATE_GOLDEN=1";
    std::vector<GoldenRow> rows;
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        GoldenRow r;
        ls >> r.label >> r.area >> r.tpi;
        EXPECT_FALSE(ls.fail()) << "bad golden line: " << line;
        rows.push_back(r);
    }
    return rows;
}

void
expectNearRel(double got, double want, const std::string &what)
{
    double tol = kRelTol * std::max(1.0, std::fabs(want));
    EXPECT_NEAR(got, want, tol) << what;
}

void
checkGolden(const std::string &figure_id, Benchmark b, bool two_level,
            const std::string &file)
{
    std::vector<GoldenRow> got =
        computeEnvelope(figure_id, b, two_level);
    ASSERT_FALSE(got.empty());

    std::string path = goldenPath(file);
    if (std::getenv("TLC_UPDATE_GOLDEN")) {
        writeGolden(path, figure_id, got);
        std::printf("regenerated %s (%zu rows)\n", path.c_str(),
                    got.size());
    }

    std::vector<GoldenRow> want = readGolden(path);
    ASSERT_EQ(got.size(), want.size())
        << figure_id << " envelope gained or lost corner points";
    for (std::size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE(figure_id + " row " + std::to_string(i));
        EXPECT_EQ(got[i].label, want[i].label);
        expectNearRel(got[i].area, want[i].area, "area_rbe");
        expectNearRel(got[i].tpi, want[i].tpi, "tpi_ns");
    }
}

} // namespace

TEST(GoldenFigures, Fig03SingleLevelEspressoEnvelope)
{
    checkGolden("fig03", Benchmark::Espresso, /*two_level=*/false,
                "fig03_espresso.txt");
}

TEST(GoldenFigures, Fig05TwoLevelGccEnvelope)
{
    checkGolden("fig05", Benchmark::Gcc1, /*two_level=*/true,
                "fig05_gcc1.txt");
}

TEST(GoldenFigures, Fig22ExclusiveDirectMappedGccEnvelope)
{
    checkGolden("fig22", Benchmark::Gcc1, /*two_level=*/true,
                "fig22_gcc1.txt");
}

TEST(GoldenFigures, Fig23ExclusiveFourWayGccEnvelope)
{
    checkGolden("fig23", Benchmark::Gcc1, /*two_level=*/true,
                "fig23_gcc1.txt");
}

TEST(GoldenFigures, Fig24ExclusiveFourWayDoducEnvelope)
{
    checkGolden("fig24", Benchmark::Doduc, /*two_level=*/true,
                "fig24_doduc.txt");
}

TEST(GoldenFigures, Fig24ExclusiveFourWayEspressoEnvelope)
{
    checkGolden("fig24", Benchmark::Espresso, /*two_level=*/true,
                "fig24_espresso.txt");
}

TEST(GoldenFigures, Fig25ExclusiveFourWayFppppEnvelope)
{
    checkGolden("fig25", Benchmark::Fpppp, /*two_level=*/true,
                "fig25_fpppp.txt");
}

TEST(GoldenFigures, Fig25ExclusiveFourWayLiEnvelope)
{
    checkGolden("fig25", Benchmark::Li, /*two_level=*/true,
                "fig25_li.txt");
}

TEST(GoldenFigures, Fig26ExclusiveFourWayEqntottEnvelope)
{
    checkGolden("fig26", Benchmark::Eqntott, /*two_level=*/true,
                "fig26_eqntott.txt");
}

TEST(GoldenFigures, Fig26ExclusiveFourWayTomcatvEnvelope)
{
    checkGolden("fig26", Benchmark::Tomcatv, /*two_level=*/true,
                "fig26_tomcatv.txt");
}
