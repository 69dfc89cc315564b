#include "common/flags.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace asd
{

std::optional<double>
parseFinite(std::string_view text)
{
    double value = 0.0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || ec != std::errc() || ptr != end ||
        !std::isfinite(value))
        return std::nullopt;
    return value;
}

FlagValue<std::string>
textValue()
{
    return {"TEXT", "a non-empty value",
            [](std::string_view text) -> std::optional<std::string> {
                if (text.empty())
                    return std::nullopt;
                return std::string(text);
            }};
}

void
flagError(const std::string &flag, const std::string &kind,
          const std::string &text)
{
    fatal(flag + " expects " + kind + ", got '" + text + "'");
}

namespace
{

/** Column where help text starts, and the width it wraps at. */
constexpr std::size_t kHelpColumn = 25;
constexpr std::size_t kWidth = 72;

} // namespace

std::string
flagUsage(const std::string &usage, const std::vector<Flag> &flags)
{
    std::string out = usage + "\n";
    for (const Flag &f : flags) {
        std::string line = "  " + f.name;
        if (!f.metavar.empty())
            line += " " + f.metavar;
        // A long name/metavar gets the help on the lines below it.
        if (line.size() + 1 > kHelpColumn) {
            out += line + "\n";
            line.clear();
        }
        std::size_t pos = 0;
        while (pos < f.help.size()) {
            line.resize(kHelpColumn, ' ');
            std::size_t end = f.help.size();
            if (kHelpColumn + end - pos > kWidth) {
                const std::size_t space =
                    f.help.rfind(' ', pos + kWidth - kHelpColumn);
                if (space != std::string::npos && space > pos)
                    end = space;
            }
            line += f.help.substr(pos, end - pos);
            out += line + "\n";
            line.clear();
            pos = end + (end < f.help.size() ? 1 : 0);
        }
        if (!line.empty())
            out += line + "\n";
    }
    return out;
}

std::vector<std::string>
parseFlags(int argc, const char *const *argv, const std::string &usage,
           const std::vector<Flag> &flags)
{
    std::vector<std::string> given;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(flagUsage(usage, flags).c_str(), stdout);
            std::exit(0);
        }
        const auto match =
            std::find_if(flags.begin(), flags.end(),
                         [&arg](const Flag &f) { return f.name == arg; });
        if (match == flags.end())
            fatal("unknown flag " + arg + " (try --help)");
        if (match->metavar.empty()) {
            match->apply("");
        } else {
            if (i + 1 >= argc)
                fatal("missing value after " + arg);
            match->apply(argv[++i]);
        }
        given.push_back(arg);
    }
    return given;
}

} // namespace asd
