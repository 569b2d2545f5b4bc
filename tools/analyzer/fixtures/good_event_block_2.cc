// analyzer-virtual-path: src/fixture/event_block_typed_ok.cc
// A typed EventQueue event whose handler only takes a short-hold
// mutex: legal, as long as nothing holds mu_ across a blocking call.
namespace exist {

class Node {
 public:
  void start(sim::EventQueue &queue) {
    queue.schedule(10, [](void *node, std::uint64_t arg) {
      static_cast<Node *>(node)->tick(arg);
    }, this, 0);
  }

  void tick(std::uint64_t arg) {
    MutexLock lk(mu_);
    ticks_ = ticks_ + arg;
  }

 private:
  Mutex mu_{LockRank::kLeaf, "fixture.node"};
  std::uint64_t ticks_ EXIST_GUARDED_BY(mu_) = 0;
};

}  // namespace exist
