/* A CPU-time sampling profiler, loaded with LD_PRELOAD.
 *
 * Every 0.5 ms of process CPU time (or every scheduler tick, if that is
 * longer) SIGPROF interrupts the program. The handler records the
 * interrupted instruction pointer and the return addresses of a
 * frame-pointer walk of the main thread's stack into a static buffer:
 * no allocation, no locks, no I/O, so it is async-signal-safe. At exit
 * the samples are written to $PROFILE_OUT, one line of hex addresses
 * per sample (innermost first), then a "maps" line and a copy of
 * /proc/self/maps, which is what scripts/profile.sh needs to symbolize
 * them.
 *
 * Build: cc -O2 -shared -fPIC -o sampler.so sampler.c
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_DEPTH 96
#define BUF_WORDS (1 << 22) /* 32 MiB of address words */

static uintptr_t buf[BUF_WORDS];
static volatile size_t used;
static volatile size_t dropped;
static uintptr_t stack_lo, stack_hi; /* where the main thread's stack may grow */

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig;
    (void)info;
    const mcontext_t *mc = &((const ucontext_t *)ctx)->uc_mcontext;
    size_t at = used;
    if (at + MAX_DEPTH + 2 > BUF_WORDS) {
        dropped++;
        return;
    }
    size_t n = 0;
    uintptr_t *frame = &buf[at + 1];
    frame[n++] = (uintptr_t)mc->gregs[REG_RIP];
    uintptr_t fp = (uintptr_t)mc->gregs[REG_RBP];
    uintptr_t sp = (uintptr_t)mc->gregs[REG_RSP];
    /* Only [sp, stack_hi) of the main thread's stack is sure to be
     * mapped; another thread's sample keeps its instruction pointer. */
    if (sp < stack_lo || sp >= stack_hi)
        fp = 0;
    /* Each frame is [saved rbp, return address]; frames grow upwards. */
    while (n < MAX_DEPTH && fp >= sp && fp + 16 <= stack_hi && fp % 8 == 0) {
        uintptr_t next = ((uintptr_t *)fp)[0];
        frame[n++] = ((uintptr_t *)fp)[1];
        if (next <= fp)
            break;
        fp = next;
    }
    buf[at] = n;
    used = at + 1 + n;
}

__attribute__((constructor)) static void start(void) {
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[512];
    while (maps && fgets(line, sizeof line, maps))
        if (strstr(line, "[stack]"))
            sscanf(line, "%*lx-%lx", &stack_hi);
    if (maps)
        fclose(maps);
    struct rlimit limit;
    uintptr_t reach = 64 << 20;
    if (getrlimit(RLIMIT_STACK, &limit) == 0 && limit.rlim_cur < reach)
        reach = limit.rlim_cur;
    stack_lo = stack_hi - reach;
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 500}, {0, 500}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void finish(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("PROFILE_OUT");
    FILE *out = path ? fopen(path, "w") : NULL;
    if (!out)
        return;
    for (size_t at = 0; at < used; at += 1 + buf[at]) {
        for (size_t i = 1; i <= buf[at]; i++)
            fprintf(out, i == 1 ? "%lx" : " %lx", buf[at + i]);
        fputc('\n', out);
    }
    fprintf(out, "maps %zu dropped\n", (size_t)dropped);
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[512];
    while (maps && fgets(line, sizeof line, maps))
        fputs(line, out);
    if (maps)
        fclose(maps);
    fclose(out);
}
