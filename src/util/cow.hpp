// Copy-on-write through shared_ptr: copies of a world share a node or a
// table until one of them writes it.
#pragma once

#include <memory>

namespace ep {

/// `shared` made private to this holder before a write: replaced by a
/// copy while another holder still shares it. use_count()==1 proves sole
/// ownership across threads as long as no holder writes in place while
/// others share (a frozen prototype is never written), because only the
/// thread that owns a holder ever copies from it. Earlier references into
/// a shared object stay valid: the other holders keep it alive.
template <typename T>
T& unshare(std::shared_ptr<T>& shared) {
  if (shared.use_count() > 1) shared = std::make_shared<T>(*shared);
  return *shared;
}

}  // namespace ep
