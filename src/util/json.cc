/**
 * @file
 * JSON helper implementation: escaping, number formatting, and a
 * recursive-descent syntax checker.
 */

#include "json.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/logging.hh"

namespace tlc {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

std::string
jsonQuote(const std::string &s)
{
    std::string out(1, '"');
    out += jsonEscape(s);
    out += '"';
    return out;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    // The output is "%.*g" at the smallest precision in 6..17 whose
    // text parses back to v: %.17g round-trips any double but prints
    // 0.1 as 0.10000000000000001. No precision below the digit count
    // of the shortest round-trip form can round-trip, so the search
    // starts there. It stops at once except for some powers of two,
    // whose rounding interval is narrower below than above: there
    // the nearest decimal of that many digits can miss it.
    char buf[40];
    const std::to_chars_result shortest = std::to_chars(
        buf, buf + sizeof(buf), v, std::chars_format::scientific);
    int digits = 0;
    for (const char *c = buf; c != shortest.ptr && *c != 'e'; ++c)
        digits += *c >= '0' && *c <= '9';

    std::to_chars_result printed{};
    for (int prec = std::max(6, digits); prec <= 17; ++prec) {
        printed = std::to_chars(buf, buf + sizeof(buf), v,
                                std::chars_format::general, prec);
        double back = 0.0;
        std::from_chars(buf, printed.ptr, back);
        if (back == v)
            break;
    }
    // "1e+06" is valid JSON, but "inf"/"nan" never reach here.
    return std::string(buf, printed.ptr);
}

// ---------------------------------------------------------------------
// Value parser
// ---------------------------------------------------------------------

JsonValue
JsonValue::makeBool(bool b)
{
    JsonValue v;
    v.type_ = Type::Bool;
    v.bool_ = b;
    return v;
}

JsonValue
JsonValue::makeNumber(double n)
{
    JsonValue v;
    v.type_ = Type::Number;
    v.num_ = n;
    return v;
}

JsonValue
JsonValue::makeString(std::string s)
{
    JsonValue v;
    v.type_ = Type::String;
    v.str_ = std::move(s);
    return v;
}

JsonValue
JsonValue::makeArray(std::vector<JsonValue> items)
{
    JsonValue v;
    v.type_ = Type::Array;
    v.items_ = std::move(items);
    return v;
}

JsonValue
JsonValue::makeObject(std::vector<Member> members)
{
    JsonValue v;
    v.type_ = Type::Object;
    v.members_ = std::move(members);
    return v;
}

bool
JsonValue::boolean() const
{
    tlc_assert(type_ == Type::Bool, "JsonValue is not a bool");
    return bool_;
}

double
JsonValue::number() const
{
    tlc_assert(type_ == Type::Number, "JsonValue is not a number");
    return num_;
}

const std::string &
JsonValue::str() const
{
    tlc_assert(type_ == Type::String, "JsonValue is not a string");
    return str_;
}

const std::vector<JsonValue> &
JsonValue::items() const
{
    tlc_assert(type_ == Type::Array, "JsonValue is not an array");
    return items_;
}

const std::vector<JsonValue::Member> &
JsonValue::members() const
{
    tlc_assert(type_ == Type::Object, "JsonValue is not an object");
    return members_;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    tlc_assert(type_ == Type::Object, "JsonValue is not an object");
    for (const auto &m : members_) {
        if (m.first == key)
            return &m.second;
    }
    return nullptr;
}

Expected<std::uint64_t>
JsonValue::asU64() const
{
    if (type_ != Type::Number)
        return statusf(StatusCode::ParseError, "expected an integer");
    constexpr double kMaxExact = 9007199254740992.0; // 2^53
    if (num_ < 0 || num_ > kMaxExact || num_ != std::floor(num_))
        return statusf(StatusCode::ParseError,
                       "expected a non-negative integer, got %s",
                       jsonNumber(num_).c_str());
    return static_cast<std::uint64_t>(num_);
}

namespace {

/** Cursor over the document; the parser advances it. */
struct Cursor
{
    const char *p;
    const char *end;

    bool eof() const { return p >= end; }
    char peek() const { return *p; }

    void skipWs()
    {
        while (p < end &&
               (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) {
            ++p;
        }
    }

    bool consume(char c)
    {
        if (p < end && *p == c) {
            ++p;
            return true;
        }
        return false;
    }

    bool literal(const char *lit)
    {
        const char *q = p;
        while (*lit) {
            if (q >= end || *q != *lit)
                return false;
            ++q;
            ++lit;
        }
        p = q;
        return true;
    }

    /** Advance over one RFC 8259 number; false if malformed. */
    bool number()
    {
        auto digit = [this] {
            return p < end &&
                   std::isdigit(static_cast<unsigned char>(*p));
        };
        consume('-');
        if (!digit())
            return false;
        if (!consume('0')) {
            while (digit())
                ++p;
        }
        if (consume('.')) {
            if (!digit())
                return false;
            while (digit())
                ++p;
        }
        if (p < end && (*p == 'e' || *p == 'E')) {
            ++p;
            if (p < end && (*p == '+' || *p == '-'))
                ++p;
            if (!digit())
                return false;
            while (digit())
                ++p;
        }
        return true;
    }
};

constexpr int kMaxParseDepth = 64;

/** Recursive-descent parser building JsonValue trees. */
struct Parser
{
    Cursor c;
    Status error; ///< first failure, with byte offset context
    const char *begin;

    /** Record the first failure; false, as every parse step
     *  returns on failure. */
    bool fail(const char *what)
    {
        if (error.ok()) {
            error = statusf(StatusCode::ParseError,
                            "JSON parse error at byte %zu: %s",
                            static_cast<std::size_t>(c.p - begin), what);
        }
        return false;
    }

    bool parseString(std::string &out)
    {
        if (!c.consume('"'))
            return fail("expected a string");
        out.clear();
        while (!c.eof()) {
            unsigned char ch = static_cast<unsigned char>(*c.p++);
            if (ch == '"')
                return true;
            if (ch < 0x20)
                return fail("raw control character in string");
            if (ch != '\\') {
                out += static_cast<char>(ch);
                continue;
            }
            if (c.eof())
                break;
            char esc = *c.p++;
            switch (esc) {
              case '"':
                out += '"';
                break;
              case '\\':
                out += '\\';
                break;
              case '/':
                out += '/';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'n':
                out += '\n';
                break;
              case 'r':
                out += '\r';
                break;
              case 't':
                out += '\t';
                break;
              case 'u': {
                unsigned cp = 0;
                if (!parseHex4(cp))
                    return false;
                if (cp >= 0xD800 && cp <= 0xDBFF) {
                    // High surrogate: require the matching low half.
                    if (!c.literal("\\u"))
                        return fail("lone high surrogate in \\u escape");
                    unsigned lo = 0;
                    if (!parseHex4(lo))
                        return false;
                    if (lo < 0xDC00 || lo > 0xDFFF)
                        return fail("invalid low surrogate in \\u escape");
                    cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                } else if (cp >= 0xDC00 && cp <= 0xDFFF)
                    return fail("lone low surrogate in \\u escape");
                appendUtf8(out, cp);
                break;
              }
              default:
                return fail("invalid escape character");
            }
        }
        return fail("unterminated string");
    }

    bool parseHex4(unsigned &out)
    {
        unsigned v = 0;
        for (int i = 0; i < 4; ++i) {
            if (c.eof() ||
                !std::isxdigit(static_cast<unsigned char>(*c.p)))
                return fail("invalid \\u escape");
            char h = *c.p++;
            unsigned d;
            if (h >= '0' && h <= '9')
                d = static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
                d = static_cast<unsigned>(h - 'a' + 10);
            else
                d = static_cast<unsigned>(h - 'A' + 10);
            v = (v << 4) | d;
        }
        out = v;
        return true;
    }

    static void appendUtf8(std::string &out, unsigned cp)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        }
    }

    bool parseNumber(JsonValue &out)
    {
        const char *start = c.p;
        if (!c.number())
            return fail("invalid number");
        std::string digits(start, c.p);
        out = JsonValue::makeNumber(std::strtod(digits.c_str(), nullptr));
        return true;
    }

    bool parseValue(JsonValue &out, int depth)
    {
        if (depth > kMaxParseDepth)
            return fail("nesting deeper than 64 levels");
        c.skipWs();
        if (c.eof())
            return fail("unexpected end of document");
        switch (c.peek()) {
          case '{': {
            ++c.p;
            std::vector<JsonValue::Member> members;
            c.skipWs();
            if (c.consume('}')) {
                out = JsonValue::makeObject(std::move(members));
                return true;
            }
            for (;;) {
                c.skipWs();
                std::string key;
                if (!parseString(key))
                    return false;
                for (const auto &m : members) {
                    if (m.first == key)
                        return fail("duplicate object key");
                }
                c.skipWs();
                if (!c.consume(':'))
                    return fail("expected ':' after object key");
                JsonValue v;
                if (!parseValue(v, depth + 1))
                    return false;
                members.emplace_back(std::move(key), std::move(v));
                c.skipWs();
                if (c.consume('}'))
                    break;
                if (!c.consume(','))
                    return fail("expected ',' or '}' in object");
            }
            out = JsonValue::makeObject(std::move(members));
            return true;
          }
          case '[': {
            ++c.p;
            std::vector<JsonValue> items;
            c.skipWs();
            if (c.consume(']')) {
                out = JsonValue::makeArray(std::move(items));
                return true;
            }
            for (;;) {
                JsonValue v;
                if (!parseValue(v, depth + 1))
                    return false;
                items.push_back(std::move(v));
                c.skipWs();
                if (c.consume(']'))
                    break;
                if (!c.consume(','))
                    return fail("expected ',' or ']' in array");
            }
            out = JsonValue::makeArray(std::move(items));
            return true;
          }
          case '"': {
            std::string s;
            if (!parseString(s))
                return false;
            out = JsonValue::makeString(std::move(s));
            return true;
          }
          case 't':
            if (!c.literal("true"))
                return fail("invalid literal");
            out = JsonValue::makeBool(true);
            return true;
          case 'f':
            if (!c.literal("false"))
                return fail("invalid literal");
            out = JsonValue::makeBool(false);
            return true;
          case 'n':
            if (!c.literal("null"))
                return fail("invalid literal");
            out = JsonValue{};
            return true;
          default:
            return parseNumber(out);
        }
    }
};

} // namespace

Expected<JsonValue>
jsonParse(const std::string &text)
{
    Parser p{Cursor{text.data(), text.data() + text.size()}, Status{},
             text.data()};
    JsonValue v;
    if (!p.parseValue(v, 0))
        return p.error;
    p.c.skipWs();
    if (!p.c.eof()) {
        p.fail("trailing garbage after document");
        return p.error;
    }
    return v;
}

} // namespace tlc
