/**
 * @file
 * Tiny JSON helpers for the observability layer.
 *
 * The metrics registry, profiler, trace-event exporter and run
 * manifest all emit JSON by hand (this repository deliberately has
 * no third-party dependencies). This header centralises the two
 * things hand-written JSON gets wrong: string escaping and numeric
 * formatting. It also provides jsonParse(), a strict parser that
 * the wire codec decodes with and that tests use to assert "this
 * blob is valid JSON".
 */

#ifndef TLC_UTIL_JSON_HH
#define TLC_UTIL_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/status.hh"

namespace tlc {

/** @p s with JSON string escaping applied (no surrounding quotes). */
std::string jsonEscape(const std::string &s);

/** @p s escaped and double-quoted, ready to splice into JSON. */
std::string jsonQuote(const std::string &s);

/**
 * A double rendered as a valid JSON number: finite values use
 * shortest round-trip formatting; NaN and infinities (which JSON
 * cannot represent) become 0 with no complaint, matching how the
 * rest of the codebase treats undefined ratios.
 */
std::string jsonNumber(double v);

/**
 * A parsed JSON value. The sweep-service wire codec
 * (service/sweep_codec.hh) decodes requests through this; it is a
 * plain immutable tree, not a DOM — build documents with the
 * escape/number helpers above, parse them with jsonParse().
 *
 * Object members keep their document order (deterministic error
 * messages, canonical re-encoding); lookup by key is linear, which
 * is fine at wire-schema sizes.
 */
class JsonValue
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    using Member = std::pair<std::string, JsonValue>;

    JsonValue() = default;
    static JsonValue makeBool(bool b);
    static JsonValue makeNumber(double v);
    static JsonValue makeString(std::string s);
    static JsonValue makeArray(std::vector<JsonValue> items);
    static JsonValue makeObject(std::vector<Member> members);

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    /** Typed accessors; asserting on the wrong type is a caller bug. */
    bool boolean() const;
    double number() const;
    const std::string &str() const;
    const std::vector<JsonValue> &items() const;
    const std::vector<Member> &members() const;

    /** Object member by key, or nullptr (asserts on non-objects). */
    const JsonValue *find(const std::string &key) const;

    /**
     * The number as an exact unsigned integer: fails when the value
     * is not a number, not integral, negative, or above 2^53 (where
     * doubles stop being exact).
     */
    Expected<std::uint64_t> asU64() const;

  private:
    Type type_ = Type::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::vector<JsonValue> items_;
    std::vector<Member> members_;
};

/**
 * Parse one complete JSON document into a JsonValue tree. Strict
 * RFC 8259 syntax plus two hardening rules a network-facing daemon
 * wants: duplicate object keys are a ParseError (silently keeping
 * either one would let two readers disagree about the same bytes),
 * and nesting beyond 64 levels is rejected (bounded recursion on
 * hostile input). \uXXXX escapes are decoded to UTF-8, including
 * surrogate pairs; lone surrogates are rejected.
 */
Expected<JsonValue> jsonParse(const std::string &text);

} // namespace tlc

#endif // TLC_UTIL_JSON_HH
