// analyzer-virtual-path: src/analysis/fixture_raw_file_io.cc
// Self-test fixture: ad-hoc file writes outside src/durability/ and
// the cluster storage layer must trip raw-file-io — durable bytes
// have to flow through the checksummed, crash-point-instrumented
// WAL/snapshot code, or recovery cannot see them.
#include <cstdio>
#include <fstream>

void
dumpDebugState(const char *path, int value)
{
    std::FILE *f = fopen(path, "w");
    std::fprintf(f, "%d\n", value);
    std::fclose(f);
    std::ofstream out("sidecar.txt");
    out << value;
}
