// Fixture: option-reachability. A constructor init list writes the members
// it names: `Pool::size_` is written there, `Pool::spare_` nowhere.
// === src/exec/pool.hpp
namespace fix {
class Pool {
 public:
  explicit Pool(int size, int limit = {}) : size_(size + limit) {}
  int size() const { return size_ + spare_; }

 private:
  int size_;
  int spare_ = 0;
};
}  // namespace fix
// === bench/fix_pool.cpp
int main() { return fix::Pool(4).size(); }
