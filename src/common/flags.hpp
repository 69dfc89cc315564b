#ifndef ASD_COMMON_FLAGS_HPP
#define ASD_COMMON_FLAGS_HPP

/**
 * @file
 * Checked command-line parsing shared by the CLIs. Each flag is
 * declared once, as a table entry holding its name, metavar, help
 * text and a typed binder, and --help is generated from the same
 * table. A malformed value (empty text, trailing characters, a sign
 * on an unsigned number, overflow of the target type, a non-finite
 * float, an unknown enum spelling) exits 1 with
 * "<flag> expects <kind>, got '<text>'", so no run ever starts on a
 * silently substituted value.
 *
 *     std::vector<Flag> flags = {
 *         flag("--buffer", "prefetch buffer lines", options.buffer_lines),
 *         flag("--mode", "prefetch configuration", options.mode),
 *         flag("--csv", "emit one CSV row", csv),
 *     };
 *     parseFlags(argc, argv, "usage: tool [options]", flags);
 *
 * The number parsers are also the checked path for environment knobs.
 */

#include <charconv>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/names.hpp"

namespace asd
{

/**
 * @return @p text as an integer of type T in [@p lo, @p hi]; nullopt
 * when the text is empty, starts with a sign or space, has any other
 * non-digit character, or the value is out of range.
 */
template <typename T>
std::optional<T>
parseUnsigned(std::string_view text, T lo = 0,
              T hi = std::numeric_limits<T>::max())
{
    static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
    if (text.empty() || text.front() < '0' || text.front() > '9')
        return std::nullopt;
    T value{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end || value < lo || value > hi)
        return std::nullopt;
    return value;
}

/**
 * @return @p text as a finite double; nullopt when the text is empty,
 * has leading space or trailing characters, is out of range, or
 * reads as inf or nan.
 */
std::optional<double> parseFinite(std::string_view text);

/** How to read one flag's value. */
template <typename T>
struct FlagValue
{
    std::string metavar; //!< --help placeholder: "N", "NP|PS|MS|PMS"
    std::string kind;    //!< the error's "expects <kind>" text
    std::function<std::optional<T>(std::string_view)> parse;
};

/** An integer in [@p lo, @p hi]. */
template <typename T>
FlagValue<T>
uintIn(T lo, T hi)
{
    return {"N",
            "an integer in [" + std::to_string(lo) + ", " +
                std::to_string(hi) + "]",
            [lo, hi](std::string_view text) {
                return parseUnsigned<T>(text, lo, hi);
            }};
}

/** A spelling from @p table. */
template <typename E>
FlagValue<E>
enumValue(NameTable<E> table)
{
    const std::string choices = enumChoices(table);
    return {choices, "one of " + choices, [table](std::string_view text) {
                return enumFromName(table, text);
            }};
}

/** A non-empty comma list of @p item values. */
template <typename T>
FlagValue<std::vector<T>>
listOf(FlagValue<T> item)
{
    // An enum's choices read naturally as a list; a number list does
    // not ("N,N"), so it gets a plain placeholder.
    std::string metavar = item.metavar;
    if (metavar.find('|') == std::string::npos)
        metavar = "LIST";
    for (char &c : metavar)
        c = c == '|' ? ',' : c;
    return {metavar, "a comma list, each " + item.kind,
            [item](std::string_view text)
                -> std::optional<std::vector<T>> {
                std::vector<T> out;
                for (std::size_t start = 0;;) {
                    const std::size_t comma = text.find(',', start);
                    auto value =
                        item.parse(text.substr(start, comma - start));
                    if (!value)
                        return std::nullopt;
                    out.push_back(std::move(*value));
                    if (comma == std::string_view::npos)
                        return out;
                    start = comma + 1;
                }
            }};
}

/** The word @p off (read as nullopt) or an @p item value. */
template <typename T>
FlagValue<std::optional<T>>
offOr(FlagValue<T> item, std::string off = "off")
{
    using Result = std::optional<std::optional<T>>;
    return {off + "|" + item.metavar, "'" + off + "' or " + item.kind,
            [item, off](std::string_view text) -> Result {
                if (text == off)
                    return Result(std::in_place);
                auto value = item.parse(text);
                if (!value)
                    return std::nullopt;
                return Result(std::in_place, std::move(*value));
            }};
}

/** Any non-empty text. */
FlagValue<std::string> textValue();

namespace detail
{

template <typename T>
struct IsVector : std::false_type
{
};

template <typename T>
struct IsVector<std::vector<T>> : std::true_type
{
};

template <typename T>
struct Unwrap
{
    using type = T;
};

template <typename T>
struct Unwrap<std::optional<T>>
{
    using type = T;
};

} // namespace detail

/**
 * The value a target of type T implies: any unsigned integer that
 * fits T, a finite double, non-empty text, a spelling from the enum's
 * name table (found as `nameTable(T{})` by argument-dependent lookup),
 * or a comma list of any of these.
 */
template <typename T>
FlagValue<T>
valueFor()
{
    if constexpr (std::is_same_v<T, std::string>) {
        return textValue();
    } else if constexpr (std::is_same_v<T, double>) {
        return {"F", "a finite number", parseFinite};
    } else if constexpr (std::is_enum_v<T>) {
        return enumValue(nameTable(T{}));
    } else if constexpr (detail::IsVector<T>::value) {
        return listOf(valueFor<typename T::value_type>());
    } else {
        return uintIn<T>(0, std::numeric_limits<T>::max());
    }
}

/** One command-line flag: a table entry of a parseFlags() call. */
struct Flag
{
    std::string name;    //!< "--buffer"
    std::string metavar; //!< value placeholder; empty for a switch
    std::string help;    //!< one line; --help wraps it
    /** Apply the flag's value text (empty for a switch). */
    std::function<void(const std::string &text)> apply;
};

/** Exit 1 with "<flag> expects <kind>, got '<text>'". */
[[noreturn]] void flagError(const std::string &flag,
                            const std::string &kind,
                            const std::string &text);

/** @return @p text read as @p value; exits 1 naming @p flag if not. */
template <typename T>
T
parseFlagValue(const std::string &flag, const FlagValue<T> &value,
               const std::string &text)
{
    auto parsed = value.parse(text);
    if (!parsed)
        flagError(flag, value.kind, text);
    return std::move(*parsed);
}

/**
 * A flag that reads @p value and hands it to @p sink: a callable
 * taking T, or a variable (T or std::optional<T>) to assign. The
 * --help placeholder is @p metavar, or the value's own when empty.
 */
template <typename T, typename Sink>
Flag
flag(std::string name, std::string help, FlagValue<T> value,
     Sink &&sink, std::string metavar = "")
{
    Flag f{name, metavar.empty() ? value.metavar : std::move(metavar),
           std::move(help), nullptr};
    if constexpr (std::is_invocable_v<Sink, T>) {
        f.apply = [name, value, sink](const std::string &text) {
            sink(parseFlagValue(name, value, text));
        };
    } else {
        static_assert(std::is_lvalue_reference_v<Sink>,
                      "a target variable must outlive its flag");
        f.apply = [name, value, &sink](const std::string &text) {
            sink = parseFlagValue(name, value, text);
        };
    }
    return f;
}

/**
 * A sink for a repeatable flag: each occurrence appends its value, or
 * every element of its list value, to @p list.
 */
template <typename T>
auto
appendTo(std::vector<T> &list)
{
    return [&list](auto value) {
        if constexpr (std::is_same_v<decltype(value), std::vector<T>>)
            list.insert(list.end(), value.begin(), value.end());
        else
            list.push_back(std::move(value));
    };
}

/**
 * A flag that assigns @p target the value its type implies (see
 * valueFor()); a bool target makes a switch that sets it.
 */
template <typename Target>
Flag
flag(std::string name, std::string help, Target &target,
     std::string metavar = "")
{
    if constexpr (std::is_same_v<Target, bool>) {
        return {std::move(name), "", std::move(help),
                [&target](const std::string &) { target = true; }};
    } else {
        return flag(std::move(name), std::move(help),
                    valueFor<typename detail::Unwrap<Target>::type>(),
                    target, std::move(metavar));
    }
}

/**
 * @return @p usage, then one line per flag: its name and metavar,
 * with the help text aligned beside it and wrapped.
 */
std::string flagUsage(const std::string &usage,
                      const std::vector<Flag> &flags);

/**
 * Apply argv[1..argc) to @p flags in command-line order. "--help" or
 * "-h" prints flagUsage() and exits 0; an unknown flag or a missing
 * value exits 1.
 */
void parseFlags(int argc, const char *const *argv,
                const std::string &usage, const std::vector<Flag> &flags);

} // namespace asd

#endif // ASD_COMMON_FLAGS_HPP
