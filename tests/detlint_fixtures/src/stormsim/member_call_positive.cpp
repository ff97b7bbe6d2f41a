// ALLOC001 fixture (member calls, positive half): a member call binds the
// methods of its receiver's class. An allocating method reached through a
// receiver of known class fires, and so does an override reached through a
// base-class reference (virtual dispatch).
#include <vector>

#define STORMTUNE_HOT

namespace fixmember {

class FxmLedger {
 public:
  int fxm_grow(int n) {
    int* fresh = new int[static_cast<unsigned>(n)];  // expect: ALLOC001
    const int v = fresh[0];
    delete[] fresh;
    return v;
  }
};

struct FxmStep {
  virtual ~FxmStep() = default;
  virtual int fxm_step() { return 0; }
};

struct FxmAllocStep : FxmStep {
  int fxm_step() override {
    std::vector<int> scratch(8);  // expect: ALLOC001
    return scratch[0];
  }
};

struct FxmWorkspace {
  FxmLedger fxm_ledger_;
  STORMTUNE_HOT int fxm_run() { return fxm_ledger_.fxm_grow(4); }
};

STORMTUNE_HOT int fxm_drive(FxmStep& fxm_stepper) {
  return fxm_stepper.fxm_step();
}

}  // namespace fixmember
