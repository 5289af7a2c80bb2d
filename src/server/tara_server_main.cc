// tara_server: the TARA serving daemon.
//
//   tara_server HOST:PORT [options]
//
// Builds (or loads) a knowledge base, then serves the wire protocol
// until SIGINT/SIGTERM. With port 0 the kernel picks a free port;
// --port-file makes the bound port discoverable by scripts. The whole
// implementation lives in RunServeMain so `tara_cli serve` is the same
// server behind a different front door.
//
// Options:
//   --loaddir DIR     open a TARAKB3 knowledge-base directory instead of
//                     generating data
//   --quest N ITEMS   Quest generator size (default 4000 120)
//   --windows K       windows to partition the generated data into (4)
//   --floor S C       support / confidence mining floors (0.01 0.1)
//   --cache BYTES     query-cache budget (default 32 MiB, 0 disables)
//   --workers N       max concurrently executing queries (0 = hardware)
//   --queue N         admission wait-queue depth (default 64)
//   --port-file FILE  write the bound port to FILE after listening

#include "server/serving_bootstrap.h"

int main(int argc, char** argv) {
  return tara::server::RunServeMain(argc - 1, argv + 1, "tara_server");
}
