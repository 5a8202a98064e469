(* Unit and property tests for the Domain work pool. *)

module Pool = Parallel.Pool

let test_order_preserved () =
  let p = Pool.create ~jobs:4 in
  let input = Array.init 257 (fun i -> i) in
  let out = Pool.map p (fun x -> (x * x) + 1) input in
  Alcotest.(check (array int)) "results in input order" (Array.map (fun x -> (x * x) + 1) input) out;
  Pool.shutdown p

let test_empty_array () =
  let p = Pool.create ~jobs:4 in
  Alcotest.(check (array int)) "empty in, empty out" [||] (Pool.map p (fun x -> x + 1) [||]);
  Pool.shutdown p

let test_singleton () =
  let p = Pool.create ~jobs:4 in
  Alcotest.(check (array int)) "single element" [| 10 |] (Pool.map p (fun x -> x * 2) [| 5 |]);
  Pool.shutdown p

let test_jobs1_matches_jobs4 () =
  let input = Array.init 100 (fun i -> i - 50) in
  let f x = (x * 3) - 7 in
  let p1 = Pool.create ~jobs:1 and p4 = Pool.create ~jobs:4 in
  Alcotest.(check (array int)) "jobs=1 = jobs=4" (Pool.map p1 f input) (Pool.map p4 f input);
  Pool.shutdown p1;
  Pool.shutdown p4

let test_jobs_clamped () =
  let p = Pool.create ~jobs:(-3) in
  Alcotest.(check int) "clamped to 1" 1 (Pool.jobs p);
  Alcotest.(check (array int)) "still maps" [| 2; 3 |] (Pool.map p succ [| 1; 2 |]);
  Pool.shutdown p;
  let p = Pool.create ~jobs:10_000 in
  Alcotest.(check int) "clamped to max_jobs" Pool.max_jobs (Pool.jobs p);
  Pool.shutdown p

let test_exception_does_not_wedge () =
  let p = Pool.create ~jobs:4 in
  (match Pool.map p (fun x -> if x = 3 then failwith "boom" else x) (Array.init 16 Fun.id) with
  | _ -> Alcotest.fail "expected the task exception to propagate"
  | exception Failure msg -> Alcotest.(check string) "task exception surfaces" "boom" msg);
  (* The pool must still be fully usable afterwards. *)
  let out = Pool.map p (fun x -> x + 1) (Array.init 32 Fun.id) in
  Alcotest.(check (array int)) "pool survives a failing batch" (Array.init 32 succ) out;
  Pool.shutdown p

let test_first_error_by_index () =
  (* Several failing tasks: the lowest-index failure is the one raised,
     independent of scheduling. *)
  let p = Pool.create ~jobs:4 in
  for _ = 1 to 20 do
    match
      Pool.map p
        (fun x -> if x mod 5 = 2 then failwith (string_of_int x) else x)
        (Array.init 32 Fun.id)
    with
    | _ -> Alcotest.fail "expected an exception"
    | exception Failure msg -> Alcotest.(check string) "lowest failing index" "2" msg
  done;
  Pool.shutdown p

let test_shutdown_idempotent () =
  let p = Pool.create ~jobs:4 in
  ignore (Pool.map p succ [| 1; 2; 3 |]);
  Pool.shutdown p;
  Pool.shutdown p;
  Pool.shutdown p;
  Alcotest.check_raises "map after shutdown"
    (Invalid_argument "Parallel.Pool.map: pool is shut down") (fun () ->
      ignore (Pool.map p succ [| 1 |]))

let test_nested_map () =
  (* A task that itself maps on the same pool: the helping scheme must
     not deadlock even with more tasks than workers. *)
  let p = Pool.create ~jobs:4 in
  let out =
    Pool.map p
      (fun x ->
        let inner = Pool.map p (fun y -> y * x) (Array.init 8 Fun.id) in
        Array.fold_left ( + ) 0 inner)
      (Array.init 16 Fun.id)
  in
  let expected = Array.init 16 (fun x -> x * 28) in
  Alcotest.(check (array int)) "nested maps" expected out;
  Pool.shutdown p

(* A thread waiting in a [map] runs only its own batch: an outer task
   waiting on its inner [map] never starts another outer task on its
   domain, so the per-domain count of running outer tasks stays at 1. *)
let test_wait_runs_own_batch () =
  let depth = Domain.DLS.new_key (fun () -> ref 0) in
  List.iter
    (fun jobs ->
      let p = Pool.create ~jobs in
      let nested = Atomic.make false in
      let out =
        Pool.map p
          (fun x ->
            let d = Domain.DLS.get depth in
            incr d;
            if !d > 1 then Atomic.set nested true;
            let inner = Pool.map p (fun y -> y * x) (Array.init 8 Fun.id) in
            decr d;
            Array.fold_left ( + ) 0 inner)
          (Array.init 16 Fun.id)
      in
      Alcotest.(check (array int))
        (Printf.sprintf "nested maps at jobs %d" jobs)
        (Array.init 16 (fun x -> x * 28))
        out;
      Alcotest.(check bool)
        (Printf.sprintf "an outer task started inside another at jobs %d" jobs)
        false (Atomic.get nested);
      Pool.shutdown p)
    [ 2; 4 ]

(* Spin until [ready ()], or give up after a bounded time, so that a
   broken pool fails the checks that follow instead of hanging. *)
let spin_until ready =
  let spins = ref 0 in
  while (not (ready ())) && !spins < 100_000_000 do
    Domain.cpu_relax ();
    incr spins
  done

(* [await] runs a future that no worker has started on the calling
   domain, and waits for one that a worker has started instead of
   running it again.  The one worker is held busy until the first future
   has been awaited. *)
let test_await_runs_unstarted () =
  let p = Pool.create ~jobs:2 in
  let started = Atomic.make 0 and release = Atomic.make false in
  let hold =
    Pool.submit p (fun () ->
        Atomic.incr started;
        spin_until (fun () -> Atomic.get release))
  in
  spin_until (fun () -> Atomic.get started > 0);
  let ran_on = Pool.await p (Pool.submit p (fun () -> (Domain.self () :> int))) in
  Atomic.set release true;
  Pool.await p hold;
  Alcotest.(check int) "unstarted future ran on the caller" (Domain.self () :> int) ran_on;
  Alcotest.(check int) "started future ran once" 1 (Atomic.get started);
  Pool.shutdown p

(* [await] on a future that a worker has started helps with the map the
   future's task opened.  The one worker holds item 0 until an item has
   run on the calling domain. *)
let test_await_helps_own_map () =
  let p = Pool.create ~jobs:2 in
  let caller = (Domain.self () :> int) in
  let started = Atomic.make false and helped = Atomic.make false in
  let fut =
    Pool.submit p (fun () ->
        Atomic.set started true;
        Pool.map p
          (fun i ->
            if i = 0 then spin_until (fun () -> Atomic.get helped)
            else if (Domain.self () :> int) = caller then Atomic.set helped true;
            i)
          (Array.init 4 Fun.id))
  in
  spin_until (fun () -> Atomic.get started);
  Alcotest.(check (array int)) "map in input order" [| 0; 1; 2; 3 |] (Pool.await p fut);
  Alcotest.(check bool) "the caller ran an item of the future's map" true (Atomic.get helped);
  Pool.shutdown p

let test_shared_pools_memoised () =
  let a = Pool.shared ~jobs:3 and b = Pool.shared ~jobs:3 in
  Alcotest.(check bool) "same pool per jobs value" true (a == b);
  let c = Pool.shared ~jobs:2 in
  Alcotest.(check bool) "distinct jobs, distinct pool" true (not (a == c))

let prop_map_equals_array_map =
  QCheck2.Test.make ~name:"Pool.map f = Array.map f for any array and jobs in [1,8]" ~count:60
    QCheck2.Gen.(pair (int_range 1 8) (array_size (int_range 0 64) small_signed_int))
    (fun (jobs, input) ->
      let f x = (x * 31) + 11 in
      let p = Pool.create ~jobs in
      let out = Pool.map p f input in
      Pool.shutdown p;
      out = Array.map f input)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        Alcotest.test_case "order preserved" `Quick test_order_preserved
        :: Alcotest.test_case "empty array" `Quick test_empty_array
        :: Alcotest.test_case "singleton" `Quick test_singleton
        :: Alcotest.test_case "jobs=1 vs jobs=4" `Quick test_jobs1_matches_jobs4
        :: Alcotest.test_case "jobs clamped" `Quick test_jobs_clamped
        :: Alcotest.test_case "exception does not wedge" `Quick test_exception_does_not_wedge
        :: Alcotest.test_case "first error by index" `Quick test_first_error_by_index
        :: Alcotest.test_case "shutdown idempotent" `Quick test_shutdown_idempotent
        :: Alcotest.test_case "nested map" `Quick test_nested_map
        :: Alcotest.test_case "waiting map runs its own batch only" `Quick
             test_wait_runs_own_batch
        :: Alcotest.test_case "await runs an unstarted future" `Quick
             test_await_runs_unstarted
        :: Alcotest.test_case "await helps its future's map" `Quick test_await_helps_own_map
        :: Alcotest.test_case "shared pools memoised" `Quick test_shared_pools_memoised
        :: qcheck [ prop_map_equals_array_map ] );
    ]
