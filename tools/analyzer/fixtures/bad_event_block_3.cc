// analyzer-virtual-path: src/fixture/event_block_typed_sleep.cc
// A sleep reachable from a typed EventQueue event: the captureless
// handler gets the node through its context pointer, and the stall
// still blocks every later event in the simulation.
namespace exist {

class Node {
 public:
  void start(sim::EventQueue &queue) {
    queue.schedule(10, [](void *node, std::uint64_t arg) {
      static_cast<Node *>(node)->tick(arg);
    }, this, 0);
  }

  void tick(std::uint64_t arg) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ticks_ = ticks_ + arg;
  }

 private:
  std::uint64_t ticks_ = 0;
};

}  // namespace exist
