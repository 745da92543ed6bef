"""Walk through the four re-indexing steps on a small mesh, printing every
intermediate array.

The input has 10 vertices: two exact duplicates (C and D are each stored
twice) and two vertices no triangle references (X and Y).
"""
import numpy as np

import remeshx as rx

A, B, C, D, E, F = (0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (0, 5)
X, Y = (9, 9), (8, 8)

mesh = rx.Mesh(
    np.array([A, B, C, X, D, C, E, F, Y, D], np.float32),
    np.array([(0, 1, 2), (0, 2, 4), (5, 6, 7), (5, 7, 9)], np.uint32),
)
print("input:", mesh)
print("input triangles (by value):")
print(rx.dereference(mesh))

# Step 1: mark used vertices, overwrite the unused ones with a used vertex --
# they become duplicates, which the rest of the pipeline removes for free.
is_used = rx.mark_used(mesh)
print("\nis_used =", is_used.astype(int))
cleaned = rx.overwrite_unused(mesh.vertices, is_used, mesh.vertices[0])
print("cleaned =", cleaned.tolist())

# Step 2: key-value sort (vertices as keys, original positions as values),
# flag first occurrences, scan the flags into compacted destinations.
sorted_vtx, org_id = rx.compute_sort_permutation(cleaned)
print("\nsorted  =", sorted_vtx.tolist())
print("org_id  =", org_id)
nodup = rx.flag_first_occurrences(sorted_vtx)
print("nodup   =", nodup.astype(int))
new_idx, new_count = rx.compute_new_indices(nodup)
print("new_idx =", new_idx, " new_count =", new_count)

# Step 3: stream-compact the survivors into the compact vertex array. Survivor k
# lands in slot k, so this equals scattering each survivor to its new_idx.
new_vtx = rx.compact_vertices(sorted_vtx, nodup, new_idx, new_count)
print("\nnew vertices =", new_vtx.tolist())

# Step 4: scatter each sorted slot's new index to its original position, then
# rewrite every element index through that table.
table = np.empty(mesh.n_vertices, np.uint32)
table[org_id] = new_idx
print("table   =", table)
new_elements = table[mesh.elements]
print("new elements =", new_elements.tolist())

# The one-call version returns the same result plus all intermediates.
out, scratch = rx.reindex(mesh)
print("\nreindex(mesh):", out)
print("hand-run steps bitwise_equal to reindex:",
      rx.bitwise_equal(rx.Mesh(new_vtx, new_elements), out))
print("output triangles (by value):")
print(rx.dereference(out))
print("soup preserved:", rx.soups_equal(rx.dereference(out), rx.dereference(mesh)))
print("matches serial baseline:", rx.equivalent(out, rx.reindex_serial(mesh)))
