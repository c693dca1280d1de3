#include "store/json.hh"

#include <cctype>
#include <cstdio>
#include <limits>

namespace etc::store {

namespace {

/** Recursive-descent parser over a bounds-checked cursor. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    JsonValue
    document()
    {
        JsonValue value = parseValue();
        skipSpace();
        if (pos_ != text_.size())
            fail("trailing garbage after document");
        return value;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw JsonError("JSON error at offset " + std::to_string(pos_) +
                        ": " + what);
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consumeWord(const char *word)
    {
        size_t n = std::char_traits<char>::length(word);
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    JsonValue
    parseValue()
    {
        skipSpace();
        switch (peek()) {
          case '{':
          case '[': {
            // Bounded, so hostile input cannot exhaust the stack.
            if (++depth_ > JSON_MAX_DEPTH)
                fail("nesting deeper than " +
                     std::to_string(JSON_MAX_DEPTH));
            JsonValue value = peek() == '{' ? parseObject() : parseArray();
            --depth_;
            return value;
          }
          case '"': return parseString();
          case 't':
          case 'f': return parseBool();
          case 'n': return parseNull();
          default: return parseNumber();
        }
    }

    JsonValue
    parseObject()
    {
        expect('{');
        JsonValue value;
        value.kind = JsonValue::Kind::Object;
        skipSpace();
        if (peek() == '}') {
            ++pos_;
            return value;
        }
        for (;;) {
            skipSpace();
            JsonValue key = parseString();
            skipSpace();
            expect(':');
            value.members.emplace_back(key.text, parseValue());
            skipSpace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return value;
        }
    }

    JsonValue
    parseArray()
    {
        expect('[');
        JsonValue value;
        value.kind = JsonValue::Kind::Array;
        skipSpace();
        if (peek() == ']') {
            ++pos_;
            return value;
        }
        for (;;) {
            value.elements.push_back(parseValue());
            skipSpace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return value;
        }
    }

    JsonValue
    parseString()
    {
        expect('"');
        JsonValue value;
        value.kind = JsonValue::Kind::String;
        for (;;) {
            char c = peek();
            ++pos_;
            if (c == '"')
                return value;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("unescaped control character in string");
            if (c != '\\') {
                value.text += c;
                continue;
            }
            char esc = peek();
            ++pos_;
            switch (esc) {
              case '"': value.text += '"'; break;
              case '\\': value.text += '\\'; break;
              case '/': value.text += '/'; break;
              case 'b': value.text += '\b'; break;
              case 'f': value.text += '\f'; break;
              case 'n': value.text += '\n'; break;
              case 'r': value.text += '\r'; break;
              case 't': value.text += '\t'; break;
              case 'u': {
                // The codec never emits non-ASCII escapes, but accept
                // the low range so hand-edited files still parse.
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = peek();
                    ++pos_;
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad \\u escape");
                }
                if (code > 0x7f)
                    fail("non-ASCII \\u escape unsupported");
                value.text += static_cast<char>(code);
                break;
              }
              default: fail("bad escape character");
            }
        }
    }

    JsonValue
    parseBool()
    {
        JsonValue value;
        value.kind = JsonValue::Kind::Bool;
        if (consumeWord("true"))
            value.boolean = true;
        else if (consumeWord("false"))
            value.boolean = false;
        else
            fail("bad literal");
        return value;
    }

    JsonValue
    parseNull()
    {
        if (!consumeWord("null"))
            fail("bad literal");
        return JsonValue{};
    }

    JsonValue
    parseNumber()
    {
        size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        bool digits = false;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
            digits = true;
        }
        if (!digits)
            fail("bad number");
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            if (pos_ >= text_.size() ||
                !std::isdigit(static_cast<unsigned char>(text_[pos_])))
                fail("bad number");
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (pos_ >= text_.size() ||
                !std::isdigit(static_cast<unsigned char>(text_[pos_])))
                fail("bad number");
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        JsonValue value;
        value.kind = JsonValue::Kind::Number;
        value.text = text_.substr(start, pos_ - start);
        return value;
    }

    const std::string &text_;
    size_t pos_ = 0;
    size_t depth_ = 0; //!< arrays/objects open at pos_
};

} // namespace

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[name, value] : members)
        if (name == key)
            return &value;
    return nullptr;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    const JsonValue *value = find(key);
    if (!value)
        throw JsonError("missing member '" + key + "'");
    return *value;
}

const std::string &
JsonValue::asString() const
{
    if (kind != Kind::String)
        throw JsonError("expected a string value");
    return text;
}

bool
JsonValue::asBool() const
{
    if (kind != Kind::Bool)
        throw JsonError("expected a boolean value");
    return boolean;
}

uint64_t
JsonValue::asU64() const
{
    if (kind != Kind::Number || text.empty() || text[0] == '-' ||
        text.find_first_not_of("0123456789") != std::string::npos)
        throw JsonError("expected an unsigned integer, got '" + text +
                        "'");
    uint64_t value = 0;
    for (char c : text) {
        uint64_t digit = static_cast<uint64_t>(c - '0');
        if (value > (std::numeric_limits<uint64_t>::max() - digit) / 10)
            throw JsonError("integer overflow in '" + text + "'");
        value = value * 10 + digit;
    }
    return value;
}

uint32_t
JsonValue::asU32() const
{
    uint64_t value = asU64();
    if (value > std::numeric_limits<uint32_t>::max())
        throw JsonError("value out of 32-bit range: '" + text + "'");
    return static_cast<uint32_t>(value);
}

JsonValue
parseJson(const std::string &text)
{
    return Parser(text).document();
}

std::string
jsonQuote(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                static const char hex[] = "0123456789abcdef";
                out += "\\u00";
                out += hex[(c >> 4) & 0xf];
                out += hex[c & 0xf];
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

std::string
readableDouble(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

JsonObjectWriter &
JsonObjectWriter::rawField(const std::string &key, const std::string &json)
{
    if (!body_.empty())
        body_ += ',';
    body_ += jsonQuote(key);
    body_ += ':';
    body_ += json;
    return *this;
}

JsonObjectWriter &
JsonObjectWriter::field(const std::string &key, const std::string &value)
{
    return rawField(key, jsonQuote(value));
}

JsonObjectWriter &
JsonObjectWriter::field(const std::string &key, const char *value)
{
    return field(key, std::string(value));
}

JsonObjectWriter &
JsonObjectWriter::field(const std::string &key, uint64_t value)
{
    return rawField(key, std::to_string(value));
}

JsonObjectWriter &
JsonObjectWriter::field(const std::string &key, bool value)
{
    return rawField(key, value ? "true" : "false");
}

std::string
JsonObjectWriter::str() const
{
    return "{" + body_ + "}";
}

} // namespace etc::store
