/**
 * @file
 * jsonNumber() against its specification: "%.*g" at the smallest
 * precision from 6 to 17 whose text parses back to the same double.
 * The reference below is that loop, written with snprintf/sscanf;
 * the library's encoder must print the same bytes for every finite
 * double.
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>

#include "util/json.hh"

using namespace tlc;

namespace {

std::string
referenceNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    for (int prec = 6; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        double back = 0.0;
        if (std::sscanf(buf, "%lf", &back) == 1 && back == v)
            break;
    }
    return buf;
}

double
fromBits(std::uint64_t b)
{
    double v;
    std::memcpy(&v, &b, sizeof(v));
    return v;
}

} // namespace

TEST(JsonNumber, EdgeCasesMatchPrintfLoop)
{
    const double cases[] = {
        0.0, -0.0, std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(), DBL_MIN, DBL_MAX,
        -DBL_MAX, DBL_EPSILON, 0.1, 0.2, 0.3, 1.0 / 3.0, 2.0 / 3.0,
        1e5, 1e6, 1e7, 123456.0, 1234567.0, 999999.5, 9.5, 0.5, 1e-5,
        1e-4, 1e21, 1e22, 1e23, 5e-324, 1.7976931348623157e308,
        std::ldexp(1.0, 1023), std::ldexp(1.0, -1022),
        std::ldexp(1.0, -1074), 100.0, 42.0, -1.5,
    };
    for (double v : cases)
        EXPECT_EQ(jsonNumber(v), referenceNumber(v)) << v;
    EXPECT_EQ(jsonNumber(-0.0), "-0");
    EXPECT_EQ(jsonNumber(1e6), "1e+06");
    EXPECT_EQ(jsonNumber(0.1), "0.1");
    EXPECT_EQ(jsonNumber(std::nan("")), "0");
    EXPECT_EQ(jsonNumber(-HUGE_VAL), "0");
}

TEST(JsonNumber, RandomBitPatternsMatchPrintfLoop)
{
    std::mt19937_64 rng(20240611);
    std::size_t compared = 0;
    while (compared < 100000) {
        double v = fromBits(rng());
        if (!std::isfinite(v))
            continue;
        ASSERT_EQ(jsonNumber(v), referenceNumber(v)) << v;
        ++compared;
    }
}

TEST(JsonNumber, DecimalGridsAndPowersOfTwoMatchPrintfLoop)
{
    // k / 10^n: the short decimals a sweep actually prints (times in
    // ns, areas, ratios), where the precision loop stops earliest.
    for (int n = 0; n <= 9; ++n) {
        const double scale = std::pow(10.0, n);
        for (int k = -4000; k <= 6000; k += 1) {
            const double v = k / scale;
            ASSERT_EQ(jsonNumber(v), referenceNumber(v)) << v;
        }
    }
    // Powers of two have an asymmetric rounding interval.
    for (int e = -1074; e <= 1023; ++e) {
        const double v = std::ldexp(1.0, e);
        ASSERT_EQ(jsonNumber(v), referenceNumber(v)) << v;
    }
}
