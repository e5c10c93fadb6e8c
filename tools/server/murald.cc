// murald: the mural SQL server daemon.
//
// Opens a fresh Database, starts the socket front end, and serves until
// SIGINT/SIGTERM; on shutdown it stops the server cleanly and prints the
// Prometheus text exposition of every engine metric (sessions, plan
// cache, admission gate, server counters) to stdout.
//
// Usage:
//   murald --unix=/tmp/mural.sock
//   murald --port=0 --max-concurrent=4 --max-queue=16
//
// Flags:
//   --unix=PATH             listen on an AF_UNIX socket (preferred)
//   --port=N                listen on loopback TCP (0 = kernel-assigned)
//   --max-connections=N     simultaneous client cap            [32]
//   --max-concurrent=N      admission gate width (0 = open)    [8]
//   --max-queue=N           admission queue depth              [16]
//   --queue-timeout-ms=N    queue wait budget before kOverloaded [1000]
//   --plan-cache=N          shared plan-cache entries (0 = off) [128]
//   --threshold=N           LexEQUAL threshold sessions start at [2]
//   --dop=N                 DOP sessions start at (0 = hardware) [0]
//   --batch-size=N          batch size sessions start at       [1024]

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/metrics.h"
#include "engine/database.h"
#include "server/server.h"
#include "session/session.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleStopSignal(int) { g_stop = 1; }

/// --name=value flag helpers (no dependency beyond the standard library).
bool FlagValue(const char* arg, const char* name, const char** value) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  mural::DatabaseOptions db_options;
  db_options.admission.max_concurrent = 8;
  mural::ServerOptions server_options;
  bool have_endpoint = false;

  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (FlagValue(argv[i], "--unix", &v)) {
      server_options.unix_path = v;
      have_endpoint = true;
    } else if (FlagValue(argv[i], "--port", &v)) {
      server_options.tcp_port = std::atoi(v);
      have_endpoint = true;
    } else if (FlagValue(argv[i], "--max-connections", &v)) {
      server_options.max_connections = std::atoi(v);
    } else if (FlagValue(argv[i], "--max-concurrent", &v)) {
      db_options.admission.max_concurrent = std::atoi(v);
    } else if (FlagValue(argv[i], "--max-queue", &v)) {
      db_options.admission.max_queue = std::atoi(v);
    } else if (FlagValue(argv[i], "--queue-timeout-ms", &v)) {
      db_options.admission.queue_timeout_ms = std::atoll(v);
    } else if (FlagValue(argv[i], "--plan-cache", &v)) {
      db_options.plan_cache_capacity =
          static_cast<size_t>(std::atoll(v));
    } else if (FlagValue(argv[i], "--threshold", &v)) {
      server_options.session_defaults.lexequal_threshold = std::atoi(v);
    } else if (FlagValue(argv[i], "--dop", &v)) {
      server_options.session_defaults.degree_of_parallelism = std::atoi(v);
    } else if (FlagValue(argv[i], "--batch-size", &v)) {
      server_options.session_defaults.batch_size = std::atoll(v);
    } else {
      std::fprintf(stderr, "murald: unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (!have_endpoint) {
    std::fprintf(stderr,
                 "murald: pass --unix=PATH or --port=N (see header "
                 "comment for all flags)\n");
    return 2;
  }

  auto db = mural::Database::Open(db_options);
  if (!db.ok()) {
    std::fprintf(stderr, "murald: %s\n",
                 db.status().ToString().c_str());
    return 1;
  }
  auto server = mural::Server::Start(db->get(), server_options);
  if (!server.ok()) {
    std::fprintf(stderr, "murald: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }

  std::printf("murald listening on %s\n",
              (*server)->endpoint().c_str());
  std::fflush(stdout);

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  while (g_stop == 0) pause();

  (*server)->Stop();
  std::printf("%s", mural::MetricsRegistry::Global()
                        .TextExposition()
                        .c_str());
  std::printf("murald shut down cleanly\n");
  return 0;
}
