// Compile probe for the project's -Werror=switch-enum: a switch over an
// enum class that misses one enumerator must fail to build *even with a
// `default:` arm*. Built only by the Build.SwitchEnum* ctests; with
// DAGON_PROBE_HANDLE_ALL defined the switch is exhaustive and must
// compile, proving the failing build fails for this reason alone.
enum class ProbeKind { Alpha, Beta, Gamma };

int probe_pick(ProbeKind k) {
  switch (k) {
    case ProbeKind::Alpha:
      return 1;
    case ProbeKind::Beta:
      return 2;
#ifdef DAGON_PROBE_HANDLE_ALL
    case ProbeKind::Gamma:
      return 3;
#endif
    default:
      return 0;
  }
}
