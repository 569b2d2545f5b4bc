// analyzer-virtual-path: src/cluster/fixture_time_seed.cc
// Self-test fixture: wall-clock seeds make every run unique; must trip
// time-seeded-rng.
#include <ctime>

#include "util/rng.h"

double
sample()
{
    exist::Rng rng(static_cast<unsigned long long>(time(nullptr)));
    return rng.uniform();
}
