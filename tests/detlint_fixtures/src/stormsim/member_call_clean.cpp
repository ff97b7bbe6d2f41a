// ALLOC001 fixture (member calls, clean half): a member call never binds a
// free function, and a receiver of known class binds only that class's
// methods. Both allocating functions below share a name with a method the
// hot path calls, and neither may be linked into it.
#include <vector>

#define STORMTUNE_HOT

namespace fixmemberclean {

// Free function named like the heap method: `heap.fxc_update()` is not a
// call to it.
std::vector<int>* fxc_update(int n) { return new std::vector<int>(n); }

class FxcHeap {
 public:
  void fxc_update(int key, double priority) {
    last_key_ = key;
    last_priority_ = priority;
  }

 private:
  int last_key_ = 0;
  double last_priority_ = 0.0;
};

// Another class's method of the same name as FxcConfig::fxc_validate.
class FxcTopology {
 public:
  bool fxc_validate() const {
    std::vector<int> reachable(3);
    return !reachable.empty();
  }
};

class FxcConfig {
 public:
  bool fxc_validate() const { return batch_ > 0; }

 private:
  int batch_ = 1;
};

struct FxcWorkspace {
  FxcHeap fxc_heap_;
  const FxcConfig* fxc_config_ = nullptr;

  STORMTUNE_HOT bool fxc_run() {
    fxc_heap_.fxc_update(1, 2.0);
    return fxc_config_->fxc_validate();
  }
};

}  // namespace fixmemberclean
