#ifndef ASD_COMMON_NAMES_HPP
#define ASD_COMMON_NAMES_HPP

/**
 * @file
 * Enum name tables: one array of (value, spelling) pairs per enum,
 * from which both directions of the conversion (and the choices a
 * CLI lists in --help) are derived, so a spelling is written once.
 */

#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "common/log.hpp"

namespace asd
{

/** One spelling of an enum value. */
template <typename E>
struct EnumName
{
    E value;
    std::string_view name;
};

/** Every spelling of an enum, in the order --help lists them. */
template <typename E>
using NameTable = std::span<const EnumName<E>>;

/** @return the spelling of @p value; panics if the table lacks it. */
template <typename E>
std::string
enumName(NameTable<E> table, E value)
{
    for (const EnumName<E> &entry : table) {
        if (entry.value == value)
            return std::string(entry.name);
    }
    panic("enum value missing from its name table");
}

/** Case-sensitive inverse of enumName(); nullopt on unknown text. */
template <typename E>
std::optional<E>
enumFromName(NameTable<E> table, std::string_view text)
{
    for (const EnumName<E> &entry : table) {
        if (entry.name == text)
            return entry.value;
    }
    return std::nullopt;
}

/** @return every spelling in @p table joined by '|'. */
template <typename E>
std::string
enumChoices(NameTable<E> table)
{
    std::string out;
    for (const EnumName<E> &entry : table) {
        if (!out.empty())
            out += '|';
        out += entry.name;
    }
    return out;
}

} // namespace asd

#endif // ASD_COMMON_NAMES_HPP
