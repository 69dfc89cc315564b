#ifndef FIXTURE_OPTIONS_HPP
#define FIXTURE_OPTIONS_HPP

// serialize-coverage fixtures. The record names (RunOptions,
// RunMetrics) and the field-list name (visitFields) match the real
// tree, so the rule treats this mini-tree exactly like the real one.
// Each deliberately missing field yields exactly one finding.

namespace fix
{

// Nested records are reached through the RunOptions members that the
// list names, the way the real tree lists the OS and tenant blocks:
// written only when enabled, which must still count as coverage for
// every field the block mentions.

struct OsConfig
{
    bool enabled = false;       // referenced by the guard: covered
    unsigned long frames = 0;   // listed inside the block: covered
    unsigned long debug_pokes = 0; // never listed: serialize-coverage
};

struct TenantMixConfig
{
    bool enabled = false;      // fully covered: no finding
    unsigned int slots = 0;
};

struct RunOptions
{
    unsigned long accesses = 0; // listed: no finding
    unsigned int threads = 1;   // listed: no finding
    bool debug_dump = false;    // never listed: serialize-coverage
    OsConfig os;
    TenantMixConfig tenants;
};

struct RunMetrics
{
    unsigned long instructions = 0; // listed: no finding
    unsigned long cycles = 0;       // never listed: serialize-coverage
};

template <typename V>
void
visitFields(V &v, FieldRef<V, RunOptions> options)
{
    v.field("accesses", options.accesses);
    v.field("threads", options.threads);
    v.blockIf("os", options.os.enabled,
              [&] { v.field("frames", options.os.frames); });
    v.blockIf("tenants", options.tenants.enabled,
              [&] { v.field("slots", options.tenants.slots); });
}

template <typename V>
void
visitFields(V &v, FieldRef<V, RunMetrics> metrics)
{
    v.field("instructions", metrics.instructions);
}

} // namespace fix

#endif // FIXTURE_OPTIONS_HPP
