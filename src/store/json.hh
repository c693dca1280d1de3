/**
 * @file
 * Minimal JSON reader/writer for the result-store JSONL codec.
 *
 * The store needs exactly one thing from JSON: a stable, human-
 * inspectable line format for small flat records. This is a strict
 * subset parser (objects, arrays, strings, numbers, booleans, null;
 * no comments, no trailing commas) that keeps every number's raw
 * text, so 64-bit integers round-trip exactly -- the codec stores
 * doubles as IEEE-754 bit patterns and seeds as hex strings, and
 * never relies on double-precision number parsing for anything that
 * must be exact.
 *
 * Errors throw JsonError; the record codec catches it and rethrows a
 * versioned StoreFormatError, so corrupt cache files are reported,
 * never crash.
 */

#ifndef ETC_STORE_JSON_HH
#define ETC_STORE_JSON_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace etc::store {

/** Thrown on malformed JSON text. */
class JsonError : public std::runtime_error
{
  public:
    explicit JsonError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

/** One parsed JSON value (a small, copyable tree). */
class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Object,
        Array,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    std::string text; //!< string contents, or a number's raw text
    std::vector<std::pair<std::string, JsonValue>> members; //!< object
    std::vector<JsonValue> elements;                        //!< array

    bool isObject() const { return kind == Kind::Object; }

    /** @return the member named @p key, or nullptr if absent. */
    const JsonValue *find(const std::string &key) const;

    /** @return the member named @p key; throws JsonError if absent. */
    const JsonValue &at(const std::string &key) const;

    /** @return string contents; throws JsonError on kind mismatch. */
    const std::string &asString() const;

    /** @return boolean contents; throws JsonError on kind mismatch. */
    bool asBool() const;

    /**
     * @return the number as an exact unsigned 64-bit value. Throws
     *         JsonError if the value is not an unsigned integer or
     *         does not fit.
     */
    uint64_t asU64() const;

    /** @return asU64() narrowed; throws JsonError if it overflows. */
    uint32_t asU32() const;
};

/** Deepest array/object nesting parseJson() accepts. */
inline constexpr size_t JSON_MAX_DEPTH = 256;

/**
 * Parse one complete JSON document from @p text.
 *
 * @throws JsonError on any syntax error, nesting deeper than
 *         JSON_MAX_DEPTH, or trailing garbage.
 */
JsonValue parseJson(const std::string &text);

/**
 * Incremental writer for one flat JSON object on a single line.
 * Keys are emitted in insertion order, so encodings are byte-stable.
 */
class JsonObjectWriter
{
  public:
    JsonObjectWriter &field(const std::string &key,
                            const std::string &value);
    JsonObjectWriter &field(const std::string &key, const char *value);
    JsonObjectWriter &field(const std::string &key, uint64_t value);
    JsonObjectWriter &field(const std::string &key, bool value);

    /** Emit a raw (pre-encoded) JSON value, e.g. a nested object. */
    JsonObjectWriter &rawField(const std::string &key,
                               const std::string &json);

    /** @return the completed single-line object. */
    std::string str() const;

  private:
    std::string body_;
};

/** Escape @p text as a JSON string literal (with quotes). */
std::string jsonQuote(const std::string &text);

/** @return @p value as "%.17g" text: readable, and exact enough to
 *  round-trip (exact codecs store the bit pattern beside it). */
std::string readableDouble(double value);

} // namespace etc::store

#endif // ETC_STORE_JSON_HH
