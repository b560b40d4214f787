// module-reach entry point: reaches core/guarded.hpp, core/refine.hpp and
// util/unique_fd.hpp directly, and util/parallel.hpp through refine.hpp's
// sibling refine.cpp.
#include "hicond/core/guarded.hpp"
#include "hicond/core/refine.hpp"
#include "hicond/util/unique_fd.hpp"

int main() { return refine(0); }
