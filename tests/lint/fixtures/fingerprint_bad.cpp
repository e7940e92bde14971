// Fault-injection fixture for the fingerprint checker: every SimConfig
// leaf must be a field-table entry or explicitly excluded, and the
// exclusion list must carry no stale entries. This file's SimConfig shadows the real one only
// within the fixture corpus. Never compiled — lint input only.

struct FixtureNested {
  int hashed_sub = 0;
  int missing_sub = 0;  // FINDING: nested leaf neither listed nor excluded
};

struct SimConfig {
  int hashed_field = 1;
  int missing_field = 2;  // FINDING: neither listed nor excluded
  int observer_knob = 3;  // excluded below: must NOT fire
  FixtureNested nested{};
};

// The stale entry (ghost_field) names a field that does not exist, so the
// checker fires on the marker line itself.
// ptb-lint: fingerprint-exclude(observer_knob, ghost_field)  // FINDING: stale entry
template <class F>
void for_each_machine_field(const SimConfig& cfg, F&& f) {
  f("hashed_field", cfg.hashed_field);
  f("nested.hashed_sub", cfg.nested.hashed_sub);
}
