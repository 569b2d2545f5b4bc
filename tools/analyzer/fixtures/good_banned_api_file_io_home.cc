// analyzer-virtual-path: src/durability/fixture_wal_writer.cc
// Self-test fixture: the durability plane is the file-IO home — the
// same calls that trip raw-file-io elsewhere are clean here.
#include <cstdio>

void
appendRecord(const char *path, const char *bytes, unsigned long n)
{
    std::FILE *f = fopen(path, "ab");
    std::fwrite(bytes, 1, n, f);
    std::fflush(f);
    std::fclose(f);
}
