// Fault-injection fixture for the wallclock checker: host time and
// entropy sources must fire token-exactly; the project's own identifiers
// that merely contain those substrings must not. Never compiled — lint
// input only.
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <random>

struct FixtureTimer {
  double time() const { return 0.0; }  // member named time: must NOT fire
};

double fixture_wallclock() {
  auto t0 = std::chrono::high_resolution_clock::now();  // FINDING
  std::random_device rd;                                // FINDING
  const char* level = std::getenv("PTB_LEVEL");         // FINDING
  int r = rand();                                       // FINDING
  std::time_t now = time(nullptr);                      // FINDING
  srand(42);                                            // FINDING
  auto t2 = std::chrono::system_clock::now();           // FINDING
  auto t3 = std::chrono::steady_clock::now();           // FINDING

  // Token-exact: substring lookalikes must NOT fire.
  double steady_state = 1.0;
  double fetch_time = 2.0;
  FixtureTimer timer;
  steady_state += timer.time();

  // Justified exemption (profiling-only): must NOT fire.
  auto t1 = std::chrono::steady_clock::now();  // lint:allowed-wallclock
  // ptb-lint: allow-begin(wallclock) -- a marked block (the serve
  // transport's clock reads): must NOT fire.
  auto t4 = std::chrono::steady_clock::now();
  // ptb-lint: allow-end
  (void)t0;
  (void)t1;
  (void)rd;
  (void)level;
  (void)now;
  (void)t2;
  (void)t3;
  (void)t4;
  return steady_state + fetch_time + static_cast<double>(r);
}
