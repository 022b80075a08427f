/* LD_PRELOAD allocation counter: counts malloc, calloc and realloc calls of
 * the whole process and forwards each to glibc. Linux/glibc only.
 * gcc -O2 -shared -fPIC -o alloc.so alloc.c; the counts go to
 * $ALLOCCOUNT_OUT (or stderr) at exit as one line:
 *   malloc=N calloc=N realloc=N */
#define _GNU_SOURCE
#include <stddef.h>
#include <stdio.h>
#include <stdlib.h>
extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
static unsigned long n_malloc, n_calloc, n_realloc;
void *malloc(size_t size) {
  __atomic_fetch_add(&n_malloc, 1, __ATOMIC_RELAXED);
  return __libc_malloc(size);
}
void *calloc(size_t nmemb, size_t size) {
  __atomic_fetch_add(&n_calloc, 1, __ATOMIC_RELAXED);
  return __libc_calloc(nmemb, size);
}
void *realloc(void *ptr, size_t size) {
  __atomic_fetch_add(&n_realloc, 1, __ATOMIC_RELAXED);
  return __libc_realloc(ptr, size);
}
__attribute__((destructor)) static void dump(void) {
  /* Read the counts before fopen, which allocates its buffer. */
  unsigned long m = n_malloc, c = n_calloc, r = n_realloc;
  const char *path = getenv("ALLOCCOUNT_OUT");
  FILE *out = path ? fopen(path, "w") : stderr;
  if (!out) return;
  fprintf(out, "malloc=%lu calloc=%lu realloc=%lu\n", m, c, r);
  if (out != stderr) fclose(out);
}
