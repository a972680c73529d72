#include "rss/btree.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace systemr {

namespace {

std::string MakeStoredKey(const std::string& user_key, Tid tid) {
  std::string stored = user_key;
  uint64_t packed = tid.Pack();
  for (int i = 7; i >= 0; --i) {
    stored.push_back(static_cast<char>((packed >> (8 * i)) & 0xff));
  }
  return stored;
}

// Encoded bytes of one entry: key length, key, then the TID (leaf) or the
// right child's page id (internal).
size_t EntryBytes(bool leaf, size_t key_size) {
  return 2 + key_size + (leaf ? 8 : 4);
}

// Makes room for one more element, growing by an eighth instead of
// doubling: decoded nodes stay resident for the tree's lifetime, so spare
// slots are memory held, while a reallocation only moves a node's entries.
template <typename T>
void ReserveOneMore(std::vector<T>* v) {
  if (v->size() == v->capacity()) v->reserve(v->size() + v->size() / 8 + 1);
}

uint64_t ReadU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

void WriteU64(char* p, uint64_t v) { std::memcpy(p, &v, 8); }

Status NodeCorrupt(PageId pid, const char* what) {
  return Status::DataLoss("corrupt B-tree node " + std::to_string(pid) + ": " +
                          what);
}

}  // namespace

size_t BTree::Node::SerializedSize() const {
  size_t size = Node::kHeaderBytes;
  if (!is_leaf) size += 4;  // Leftmost child.
  for (const std::string& key : keys) size += EntryBytes(is_leaf, key.size());
  return size;
}

BTree::BTree(BufferPool* pool, IndexId id, bool unique)
    : pool_(pool), id_(id), unique_(unique) {
  root_ = AllocNode(/*leaf=*/true);
  // The fresh root is resident (NewPage pins it), so this fetch cannot fail.
  StatusOr<Page*> page = pool_->FetchMut(root_);
  assert(page.ok());
  Status encoded = Encode(node_cache_[root_], *page);
  assert(encoded.ok());
  (void)encoded;
}

PageId BTree::AllocNode(bool leaf) {
  PageId pid = pool_->NewPage();
  ++num_pages_;
  if (leaf) ++num_leaf_pages_;
  return pid;
}

StatusOr<const BTree::Node*> BTree::GetNode(PageId pid) const {
  // The fetch is issued unconditionally so metering (buffer gets, simulated
  // page fetches, LRU state) is identical whether or not the decoded form is
  // cached; the cache only skips re-deserialization. Fetch failures (I/O
  // error, checksum mismatch) propagate even when a decode is cached — the
  // simulated disk read did fail.
  ASSIGN_OR_RETURN(const Page* page, pool_->Fetch(pid));
  auto [it, inserted] = node_cache_.try_emplace(pid);
  if (!inserted) return &it->second;

  Node* node = &it->second;
  const char* p = page->bytes.data();
  const size_t num_store_pages = pool_->store()->num_pages();
  // Structural validation: every field read below is first bounds-checked so
  // a corrupt page (delivered by an injected fault or a real bug) becomes
  // kDataLoss, never an out-of-bounds read. On failure the provisional cache
  // entry is dropped — a bad decode must not be served later.
  auto reject = [&](const char* what) -> Status {
    node_cache_.erase(it);
    return NodeCorrupt(pid, what);
  };
  uint8_t leaf_byte = static_cast<uint8_t>(p[0]);
  if (leaf_byte > 1) return reject("header flag not 0/1");
  node->is_leaf = leaf_byte != 0;
  uint16_t count;
  std::memcpy(&count, p + 1, 2);
  std::memcpy(&node->next, p + 3, 4);
  if (node->is_leaf && node->next != kInvalidPage &&
      node->next >= num_store_pages) {
    return reject("leaf chain points past the store");
  }
  size_t pos = Node::kHeaderBytes;
  if (!node->is_leaf) {
    if (pos + 4 > kPageSize) return reject("truncated leftmost child");
    PageId child;
    std::memcpy(&child, p + pos, 4);
    pos += 4;
    if (child >= num_store_pages) return reject("child id out of range");
    node->children.push_back(child);
  }
  node->keys.reserve(count);
  if (node->is_leaf) {
    node->tids.reserve(count);
  } else {
    node->children.reserve(count + 1);
  }
  for (uint16_t i = 0; i < count; ++i) {
    if (pos + 2 > kPageSize) return reject("entry overruns page");
    uint16_t klen;
    std::memcpy(&klen, p + pos, 2);
    pos += 2;
    size_t payload = node->is_leaf ? 8 : 4;
    if (pos + klen + payload > kPageSize) return reject("entry overruns page");
    node->keys.emplace_back(p + pos, klen);
    pos += klen;
    if (i > 0 && node->keys[i] <= node->keys[i - 1]) {
      return reject("keys not strictly ascending");
    }
    if (node->is_leaf) {
      node->tids.push_back(ReadU64(p + pos));
      pos += 8;
    } else {
      PageId child;
      std::memcpy(&child, p + pos, 4);
      pos += 4;
      if (child >= num_store_pages) return reject("child id out of range");
      node->children.push_back(child);
    }
  }
  node->bytes = pos;
  return node;
}

StatusOr<BTree::Node*> BTree::GetNodeForWrite(PageId pid) {
  ASSIGN_OR_RETURN(const Node* node, GetNode(pid));
  // The cache belongs to this tree, which the caller may modify; GetNode
  // hands out const nodes only so the read paths cannot edit them.
  return const_cast<Node*>(node);
}

Status BTree::Encode(const Node& node, Page* page) {
  assert(node.bytes == node.SerializedSize());
  // `bytes` decides splits; should it ever drift from the true size, fail
  // here rather than write past the page.
  auto overflow = [] {
    return Status::Internal("B-tree node does not fit its page");
  };
  if (node.bytes > kPageSize) return overflow();
  char* p = page->bytes.data();
  p[0] = node.is_leaf ? 1 : 0;
  uint16_t count = static_cast<uint16_t>(node.keys.size());
  std::memcpy(p + 1, &count, 2);
  std::memcpy(p + 3, &node.next, 4);
  size_t pos = Node::kHeaderBytes;
  if (!node.is_leaf) {
    std::memcpy(p + pos, &node.children[0], 4);
    pos += 4;
  }
  for (size_t i = 0; i < node.keys.size(); ++i) {
    uint16_t klen = static_cast<uint16_t>(node.keys[i].size());
    if (pos + EntryBytes(node.is_leaf, klen) > kPageSize) return overflow();
    std::memcpy(p + pos, &klen, 2);
    pos += 2;
    std::memcpy(p + pos, node.keys[i].data(), klen);
    pos += klen;
    if (node.is_leaf) {
      WriteU64(p + pos, node.tids[i]);
      pos += 8;
    } else {
      std::memcpy(p + pos, &node.children[i + 1], 4);
      pos += 4;
    }
  }
  return Status::OK();
}

Status BTree::Insert(const std::string& user_key, Tid tid) {
  if (unique_) {
    ASSIGN_OR_RETURN(bool exists, ContainsKey(user_key));
    if (exists) return Status::AlreadyExists("duplicate key in unique index");
  }
  std::string stored = MakeStoredKey(user_key, tid);
  if (stored.size() + 32 > kPageSize / 4) {
    return Status::InvalidArgument("index key too large");
  }

  // Descend, remembering each node on the path and where the entry goes.
  struct Step {
    PageId pid;
    Node* node;
    size_t idx;  // Insert position of the entry this node may gain.
  };
  std::vector<Step> path;  // Root first.
  path.reserve(static_cast<size_t>(height_));
  for (PageId pid = root_;;) {
    // Bounded like FindLeaf: a corrupt child loop must neither spin nor put
    // one node on the path twice.
    if (static_cast<int>(path.size()) == height_) {
      return Status::DataLoss("B-tree insert descent exceeded height " +
                              std::to_string(height_));
    }
    ASSIGN_OR_RETURN(Node* node, GetNodeForWrite(pid));
    auto it = std::upper_bound(node->keys.begin(), node->keys.end(), stored);
    path.push_back({pid, node, static_cast<size_t>(it - node->keys.begin())});
    if (node->is_leaf) break;
    pid = node->children[path.back().idx];
  }

  // Plan bottom-up which nodes split, allocate each right sibling and fetch
  // every page this insert writes before any node is edited, so a failed
  // fetch leaves every node and its page as they were (siblings allocated
  // before it stay allocated, unreachable). The pages are allocated and fetched in
  // the order the edits use them, so page ids and buffer state match a
  // level-by-level write.
  struct Write {
    Page* page = nullptr;
    PageId right = kInvalidPage;  // Fresh sibling if the node splits.
    Page* right_page = nullptr;
    // Split point: keys [mid, end) of the node, new entry included, move
    // to `right`, and key `mid` is the separator the parent gains.
    size_t mid = 0;
  };
  std::vector<Write> writes;  // Leaf first; one per node that changes.
  size_t key_size = stored.size();  // Of the entry the level gains.
  for (size_t level = path.size(); level-- > 0;) {
    const Step& s = path[level];
    const Node& node = *s.node;
    Write w;
    bool split = node.bytes + EntryBytes(node.is_leaf, key_size) > kPageSize;
    if (split) w.right = AllocNode(node.is_leaf);
    ASSIGN_OR_RETURN(w.page, pool_->FetchMut(s.pid));
    if (split) {
      ASSIGN_OR_RETURN(w.right_page, pool_->FetchMut(w.right));
    }
    if (!split) {
      writes.push_back(w);
      break;
    }
    // The middle of the keys with the new one inserted, at s.idx.
    w.mid = (node.keys.size() + 1) / 2;
    if (w.mid != s.idx) {
      key_size = node.keys[w.mid < s.idx ? w.mid : w.mid - 1].size();
    }
    writes.push_back(w);
  }
  const bool grow = writes.size() == path.size() &&
                    writes.back().right != kInvalidPage;
  PageId new_root = kInvalidPage;
  Page* new_root_page = nullptr;
  if (grow) {
    new_root = AllocNode(/*leaf=*/false);
    ASSIGN_OR_RETURN(new_root_page, pool_->FetchMut(new_root));
  }

  // Apply: every page is in hand, so nothing below fails unless a planned
  // size was wrong, which Encode reports.
  std::string key = std::move(stored);
  PageId right_child = kInvalidPage;  // Internal levels: the split's right.
  for (size_t i = 0; i < writes.size(); ++i) {
    const Step& s = path[path.size() - 1 - i];
    Node* node = s.node;
    node->bytes += EntryBytes(node->is_leaf, key.size());
    if (node->is_leaf) {
      ReserveOneMore(&node->tids);
      node->tids.insert(node->tids.begin() + s.idx, tid.Pack());
    } else {
      ReserveOneMore(&node->children);
      node->children.insert(node->children.begin() + s.idx + 1, right_child);
    }
    ReserveOneMore(&node->keys);
    node->keys.insert(node->keys.begin() + s.idx, std::move(key));
    const Write& w = writes[i];
    assert((w.right != kInvalidPage) == (node->bytes > kPageSize));
    if (w.right == kInvalidPage) {
      RETURN_IF_ERROR(Encode(*node, w.page));
      break;
    }
    Node* right = &node_cache_[w.right];
    key = Split(node, right, w.right, w.mid);
    right_child = w.right;
    RETURN_IF_ERROR(Encode(*node, w.page));
    RETURN_IF_ERROR(Encode(*right, w.right_page));
  }
  if (grow) {
    Node& root = node_cache_[new_root];
    root.is_leaf = false;
    root.children = {root_, right_child};
    root.bytes = Node::kHeaderBytes + 4 + EntryBytes(false, key.size());
    root.keys.push_back(std::move(key));
    RETURN_IF_ERROR(Encode(root, new_root_page));
    root_ = new_root;
    ++height_;
  }
  ++num_entries_;
  return Status::OK();
}

std::string BTree::Split(Node* node, Node* right, PageId right_pid,
                         size_t mid) {
  right->is_leaf = node->is_leaf;
  // Moves keys [from, end) to `right`; returns their encoded bytes.
  auto move_keys = [&](size_t from) {
    size_t moved = 0;
    right->keys.reserve(node->keys.size() - from);
    for (size_t i = from; i < node->keys.size(); ++i) {
      moved += EntryBytes(node->is_leaf, node->keys[i].size());
      right->keys.push_back(std::move(node->keys[i]));
    }
    node->keys.resize(from);
    return moved;
  };
  std::string separator;
  if (node->is_leaf) {
    size_t moved = move_keys(mid);
    right->tids.assign(node->tids.begin() + mid, node->tids.end());
    node->tids.resize(mid);
    node->bytes -= moved;
    right->bytes += moved;
    separator = right->keys.front();
    right->next = node->next;
    node->next = right_pid;
  } else {
    size_t moved = move_keys(mid + 1);
    separator = std::move(node->keys[mid]);
    node->keys.resize(mid);
    node->bytes -= moved + EntryBytes(false, separator.size());
    right->bytes += 4 + moved;  // Leftmost child, then the moved entries.
    right->children.assign(node->children.begin() + mid + 1,
                           node->children.end());
    node->children.resize(mid + 1);
  }
  // Both halves are about half full. Release the left half's spare
  // capacity, or every split node would keep a full page's worth of slots.
  node->keys.shrink_to_fit();
  node->tids.shrink_to_fit();
  node->children.shrink_to_fit();
  return separator;
}

Status BTree::Delete(const std::string& user_key, Tid tid) {
  std::string stored = MakeStoredKey(user_key, tid);
  ASSIGN_OR_RETURN(PageId leaf, FindLeaf(stored));
  ASSIGN_OR_RETURN(Node* node, GetNodeForWrite(leaf));
  auto it = std::lower_bound(node->keys.begin(), node->keys.end(), stored);
  if (it == node->keys.end() || *it != stored) {
    return Status::NotFound("index entry not found");
  }
  ASSIGN_OR_RETURN(Page * page, pool_->FetchMut(leaf));
  size_t idx = static_cast<size_t>(it - node->keys.begin());
  node->bytes -= EntryBytes(true, stored.size());
  node->keys.erase(it);
  node->tids.erase(node->tids.begin() + idx);
  RETURN_IF_ERROR(Encode(*node, page));
  --num_entries_;
  return Status::OK();
}

StatusOr<PageId> BTree::FindLeaf(const std::string& target) const {
  PageId pid = root_;
  // Any well-formed descent terminates within the tree's height; bound the
  // walk so a corrupt-but-plausible child loop cannot spin forever.
  for (int depth = 0; depth <= height_ + 1; ++depth) {
    ASSIGN_OR_RETURN(const Node* node, GetNode(pid));
    if (node->is_leaf) return pid;
    // lower_bound routing: keys equal to a separator live in the right
    // subtree (separators are first-keys of right siblings), but a *seek*
    // target is a bare user key, always strictly shorter than any stored key
    // with that user prefix, so lower_bound routing finds the leftmost
    // candidate.
    auto it = std::lower_bound(node->keys.begin(), node->keys.end(), target);
    size_t idx = static_cast<size_t>(it - node->keys.begin());
    if (it != node->keys.end() && *it == target) ++idx;
    pid = node->children[idx];
  }
  return Status::DataLoss("B-tree descent exceeded height " +
                          std::to_string(height_) + " (cyclic child links?)");
}

StatusOr<bool> BTree::ContainsKey(const std::string& user_key) const {
  Cursor c = NewCursor();
  RETURN_IF_ERROR(c.Seek(user_key));
  return c.Valid() && c.user_key() == user_key;
}

Status BTree::Cursor::LoadLeaf(PageId leaf) {
  leaf_ = leaf;
  ASSIGN_OR_RETURN(node_, tree_->GetNode(leaf));
  if (!node_->is_leaf) {
    return NodeCorrupt(leaf, "leaf chain reached an internal node");
  }
  return Status::OK();
}

void BTree::Cursor::LoadEntry() {
  const std::string& stored = node_->keys[pos_];
  user_key_.assign(stored, 0, stored.size() - 8);
  tid_ = Tid::Unpack(node_->tids[pos_]);
}

Status BTree::Cursor::Seek(const std::string& start) {
  valid_ = false;
  ASSIGN_OR_RETURN(PageId leaf, tree_->FindLeaf(start));
  RETURN_IF_ERROR(LoadLeaf(leaf));
  auto it = std::lower_bound(node_->keys.begin(), node_->keys.end(), start);
  pos_ = static_cast<size_t>(it - node_->keys.begin());
  // The first matching entry may be at the start of the next leaf.
  while (pos_ >= node_->keys.size()) {
    if (node_->next == kInvalidPage) {
      return Status::OK();  // Past the last entry; cursor stays invalid.
    }
    RETURN_IF_ERROR(LoadLeaf(node_->next));
    pos_ = 0;
  }
  valid_ = true;
  LoadEntry();
  return Status::OK();
}

Status BTree::Cursor::Next() {
  if (!valid_) return Status::OK();
  ++pos_;
  while (pos_ >= node_->keys.size()) {
    if (node_->next == kInvalidPage) {
      valid_ = false;
      return Status::OK();
    }
    Status st = LoadLeaf(node_->next);
    if (!st.ok()) {
      valid_ = false;
      return st;
    }
    pos_ = 0;
  }
  LoadEntry();
  return Status::OK();
}

}  // namespace systemr
