#ifndef ASD_LINT_SEMANTIC_RULES_HPP
#define ASD_LINT_SEMANTIC_RULES_HPP

/**
 * @file
 * Pass 2 of asdlint v2: cross-translation-unit semantic rules over
 * the declaration index (lint/decl_index.hpp). Unlike the per-file
 * token rules (lint/rules.hpp), these see every class, member, and
 * function body in the tree at once.
 *
 * Rule catalog (see docs/architecture.md for the full rationale):
 *   snapshot-field-coverage  every data member of a Snapshottable
 *                            subclass must be referenced by both
 *                            saveState and loadState (or be exempt:
 *                            const/reference/raw-pointer/config/
 *                            callback members are re-derived, never
 *                            snapshotted)
 *   serialize-coverage       fields of RunOptions/RunMetrics and of
 *                            the records nested in them must appear
 *                            in the record's visitFields list, which
 *                            drives both its JSON writer and reader
 *   wall-clock-and-env       no wall-clock reads or getenv in the
 *                            deterministic layers (sim, core,
 *                            prefetch, tuner, arena)
 *   unordered-iteration      flow-aware: iterating an unordered
 *                            container in a function connected (as
 *                            caller or callee, within the TU) to an
 *                            output-emitting sink
 *   allow-missing-reason     an asdlint:allow naming a semantic rule
 *                            must carry a justification; without one
 *                            the suppression is inert
 */

#include <string>
#include <vector>

#include "lint/decl_index.hpp"
#include "lint/diagnostic.hpp"

namespace asd::lint
{

/** A named, documented semantic (cross-TU) rule. */
struct SemanticRule
{
    std::string name;
    Severity severity;
    std::string summary;
    void (*check)(const DeclIndex &, std::vector<Diagnostic> &);
};

/** Every semantic rule, in stable (alphabetical) order. */
const std::vector<SemanticRule> &semanticRuleRegistry();

/** @return the registry entry for @p name, or nullptr. */
const SemanticRule *findSemanticRule(const std::string &name);

/** True when @p name names a semantic rule. */
bool isSemanticRule(const std::string &name);

} // namespace asd::lint

#endif // ASD_LINT_SEMANTIC_RULES_HPP
