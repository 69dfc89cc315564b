#include "common/json.hpp"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace asd
{

std::string
jsonEscape(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
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
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

// --- JsonWriter ----------------------------------------------------

void
JsonWriter::separate()
{
    if (after_key_) {
        after_key_ = false;
        return;
    }
    if (!first_)
        out_ += ',';
    first_ = false;
}

JsonWriter &
JsonWriter::beginObject()
{
    separate();
    out_ += '{';
    stack_.push_back('{');
    first_ = true;
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    out_ += '}';
    stack_.pop_back();
    first_ = false;
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    separate();
    out_ += '[';
    stack_.push_back('[');
    first_ = true;
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    out_ += ']';
    stack_.pop_back();
    first_ = false;
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view name)
{
    separate();
    out_ += '"';
    out_ += jsonEscape(name);
    out_ += "\":";
    after_key_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view text)
{
    separate();
    out_ += '"';
    out_ += jsonEscape(text);
    out_ += '"';
    return *this;
}

JsonWriter &
JsonWriter::value(const char *text)
{
    return value(std::string_view(text));
}

JsonWriter &
JsonWriter::value(double number)
{
    if (!std::isfinite(number))
        return null();
    separate();
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), number);
    out_.append(buf, res.ptr);
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t number)
{
    separate();
    out_ += std::to_string(number);
    return *this;
}

JsonWriter &
JsonWriter::value(std::int64_t number)
{
    separate();
    out_ += std::to_string(number);
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint32_t number)
{
    return value(static_cast<std::uint64_t>(number));
}

JsonWriter &
JsonWriter::value(int number)
{
    return value(static_cast<std::int64_t>(number));
}

JsonWriter &
JsonWriter::value(bool flag)
{
    separate();
    out_ += flag ? "true" : "false";
    return *this;
}

JsonWriter &
JsonWriter::null()
{
    separate();
    out_ += "null";
    return *this;
}

// --- JsonValue -----------------------------------------------------

std::optional<bool>
JsonValue::asBool() const
{
    if (kind_ != Kind::Bool)
        return std::nullopt;
    return bool_;
}

const std::string *
JsonValue::asString() const
{
    return kind_ == Kind::String ? &string_ : nullptr;
}

std::optional<std::uint64_t>
JsonValue::asU64() const
{
    if (kind_ != Kind::Number || !integral_ || negative_)
        return std::nullopt;
    return magnitude_;
}

std::optional<std::int64_t>
JsonValue::asI64() const
{
    constexpr auto kMax =
        static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
    if (kind_ != Kind::Number || !integral_ ||
        magnitude_ > kMax + (negative_ ? 1 : 0))
        return std::nullopt;
    return negative_ ? -static_cast<std::int64_t>(magnitude_ - 1) - 1
                     : static_cast<std::int64_t>(magnitude_);
}

std::optional<double>
JsonValue::asDouble() const
{
    if (kind_ != Kind::Number)
        return std::nullopt;
    return number_;
}

const std::vector<JsonValue> &
JsonValue::items() const
{
    return items_;
}

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::members() const
{
    return members_;
}

const JsonValue *
JsonValue::find(std::string_view name) const
{
    for (const auto &[key, value] : members_) {
        if (key == name)
            return &value;
    }
    return nullptr;
}

JsonValue
JsonValue::makeNull()
{
    return JsonValue{};
}

JsonValue
JsonValue::makeBool(bool flag)
{
    JsonValue v;
    v.kind_ = Kind::Bool;
    v.bool_ = flag;
    return v;
}

JsonValue
JsonValue::makeNumber(double value, bool integral, bool negative,
                      std::uint64_t magnitude)
{
    JsonValue v;
    v.kind_ = Kind::Number;
    v.number_ = value;
    v.integral_ = integral;
    v.negative_ = negative && magnitude != 0;
    v.magnitude_ = magnitude;
    return v;
}

JsonValue
JsonValue::makeString(std::string text)
{
    JsonValue v;
    v.kind_ = Kind::String;
    v.string_ = std::move(text);
    return v;
}

JsonValue
JsonValue::makeArray(std::vector<JsonValue> items)
{
    JsonValue v;
    v.kind_ = Kind::Array;
    v.items_ = std::move(items);
    return v;
}

JsonValue
JsonValue::makeObject(
    std::vector<std::pair<std::string, JsonValue>> members)
{
    JsonValue v;
    v.kind_ = Kind::Object;
    v.members_ = std::move(members);
    return v;
}

// --- jsonParse -----------------------------------------------------

namespace
{

/**
 * Recursive-descent DOM builder over the RFC 8259 grammar, with
 * nesting capped at kMaxDepth; any deviation returns nullopt all the
 * way up.
 */
class JsonParser
{
  public:
    explicit JsonParser(std::string_view text) : text_(text) {}

    std::optional<JsonValue>
    parseDocument()
    {
        skipWs();
        auto value = parseValue(0);
        if (!value)
            return std::nullopt;
        skipWs();
        if (pos_ != text_.size())
            return std::nullopt;
        return value;
    }

  private:
    static constexpr int kMaxDepth = 128;

    bool
    eof() const
    {
        return pos_ >= text_.size();
    }

    char
    peek() const
    {
        return text_[pos_];
    }

    void
    skipWs()
    {
        while (!eof() && (peek() == ' ' || peek() == '\t' ||
                          peek() == '\n' || peek() == '\r'))
            ++pos_;
    }

    bool
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return false;
        pos_ += word.size();
        return true;
    }

    static void
    appendUtf8(std::string &out, std::uint32_t cp)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xc0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xe0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else {
            out += static_cast<char>(0xf0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        }
    }

    std::optional<std::uint32_t>
    parseHex4()
    {
        std::uint32_t code = 0;
        for (int i = 0; i < 4; ++i) {
            if (eof())
                return std::nullopt;
            const char c = text_[pos_++];
            code <<= 4;
            if (c >= '0' && c <= '9')
                code |= static_cast<std::uint32_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                code |= static_cast<std::uint32_t>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                code |= static_cast<std::uint32_t>(c - 'A' + 10);
            else
                return std::nullopt;
        }
        return code;
    }

    std::optional<std::string>
    parseString()
    {
        if (eof() || peek() != '"')
            return std::nullopt;
        ++pos_;
        std::string out;
        while (!eof()) {
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                return std::nullopt;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (eof())
                return std::nullopt;
            const char esc = text_[pos_++];
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
                auto code = parseHex4();
                if (!code)
                    return std::nullopt;
                std::uint32_t cp = *code;
                if (cp >= 0xd800 && cp <= 0xdbff) {
                    // High surrogate: require a low surrogate pair.
                    if (!literal("\\u"))
                        return std::nullopt;
                    auto low = parseHex4();
                    if (!low || *low < 0xdc00 || *low > 0xdfff)
                        return std::nullopt;
                    cp = 0x10000 + ((cp - 0xd800) << 10) +
                         (*low - 0xdc00);
                } else if (cp >= 0xdc00 && cp <= 0xdfff) {
                    return std::nullopt; // lone low surrogate
                }
                appendUtf8(out, cp);
                break;
            }
            default:
                return std::nullopt;
            }
        }
        return std::nullopt;
    }

    std::optional<JsonValue>
    parseNumber()
    {
        const std::size_t start = pos_;
        if (!eof() && peek() == '-')
            ++pos_;
        if (eof())
            return std::nullopt;
        if (peek() == '0') {
            ++pos_;
        } else {
            if (!std::isdigit(static_cast<unsigned char>(peek())))
                return std::nullopt;
            while (!eof() &&
                   std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        bool integral = true;
        if (!eof() && peek() == '.') {
            integral = false;
            ++pos_;
            if (eof() ||
                !std::isdigit(static_cast<unsigned char>(peek())))
                return std::nullopt;
            while (!eof() &&
                   std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        if (!eof() && (peek() == 'e' || peek() == 'E')) {
            integral = false;
            ++pos_;
            if (!eof() && (peek() == '+' || peek() == '-'))
                ++pos_;
            if (eof() ||
                !std::isdigit(static_cast<unsigned char>(peek())))
                return std::nullopt;
            while (!eof() &&
                   std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        const std::string lexeme(text_.substr(start, pos_ - start));
        const double value = std::strtod(lexeme.c_str(), nullptr);
        const bool negative = lexeme[0] == '-';
        std::uint64_t magnitude = 0;
        if (integral) {
            errno = 0;
            magnitude = std::strtoull(lexeme.c_str() + (negative ? 1 : 0),
                                      nullptr, 10);
            if (errno == ERANGE)
                integral = false; // keep only the double reading
        }
        return JsonValue::makeNumber(value, integral, negative,
                                     magnitude);
    }

    std::optional<JsonValue>
    parseValue(int depth)
    {
        if (eof() || depth > kMaxDepth)
            return std::nullopt;
        const char c = peek();
        if (c == '{')
            return parseObject(depth);
        if (c == '[')
            return parseArray(depth);
        if (c == '"') {
            auto text = parseString();
            if (!text)
                return std::nullopt;
            return JsonValue::makeString(std::move(*text));
        }
        if (c == 't')
            return literal("true")
                       ? std::optional(JsonValue::makeBool(true))
                       : std::nullopt;
        if (c == 'f')
            return literal("false")
                       ? std::optional(JsonValue::makeBool(false))
                       : std::nullopt;
        if (c == 'n')
            return literal("null")
                       ? std::optional(JsonValue::makeNull())
                       : std::nullopt;
        return parseNumber();
    }

    std::optional<JsonValue>
    parseObject(int depth)
    {
        ++pos_; // '{'
        skipWs();
        std::vector<std::pair<std::string, JsonValue>> members;
        if (!eof() && peek() == '}') {
            ++pos_;
            return JsonValue::makeObject(std::move(members));
        }
        while (true) {
            skipWs();
            auto key = parseString();
            if (!key)
                return std::nullopt;
            skipWs();
            if (eof() || peek() != ':')
                return std::nullopt;
            ++pos_;
            skipWs();
            auto value = parseValue(depth + 1);
            if (!value)
                return std::nullopt;
            members.emplace_back(std::move(*key), std::move(*value));
            skipWs();
            if (eof())
                return std::nullopt;
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return JsonValue::makeObject(std::move(members));
            }
            return std::nullopt;
        }
    }

    std::optional<JsonValue>
    parseArray(int depth)
    {
        ++pos_; // '['
        skipWs();
        std::vector<JsonValue> items;
        if (!eof() && peek() == ']') {
            ++pos_;
            return JsonValue::makeArray(std::move(items));
        }
        while (true) {
            skipWs();
            auto value = parseValue(depth + 1);
            if (!value)
                return std::nullopt;
            items.push_back(std::move(*value));
            skipWs();
            if (eof())
                return std::nullopt;
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return JsonValue::makeArray(std::move(items));
            }
            return std::nullopt;
        }
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

} // namespace

std::optional<JsonValue>
jsonParse(std::string_view text)
{
    return JsonParser(text).parseDocument();
}

} // namespace asd
