#include <stdio.h>
#include <pthread.h>

/* Producer/consumer handshake over a condition variable.  It runs on
 * the single-core pthread baseline ("got 42"), but Stage 5 has no
 * lowering for pthread_cond_wait/pthread_cond_signal, so translating
 * it to RCCE must fail with a diagnostic naming each call instead of
 * emitting a program whose wait never returns. */

pthread_mutex_t lock;
pthread_cond_t cond;
int ready = 0;
int value = 0;

void *producer(void *arg)
{
    pthread_mutex_lock(&lock);
    value = 42;
    ready = 1;
    pthread_cond_signal(&cond);
    pthread_mutex_unlock(&lock);
    return (void *)0;
}

int main(int argc, char **argv)
{
    pthread_t tid;
    pthread_mutex_init(&lock, 0);
    pthread_cond_init(&cond, 0);
    pthread_create(&tid, 0, producer, (void *)0);
    pthread_mutex_lock(&lock);
    while (!ready)
    {
        pthread_cond_wait(&cond, &lock);
    }
    pthread_mutex_unlock(&lock);
    pthread_join(tid, 0);
    printf("got %d\n", value);
    return 0;
}
