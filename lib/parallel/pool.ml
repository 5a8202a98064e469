(* A future's scope holds the map its task opened last, so that [await]
   can help with it; [changed] signals a new map or the result.  Both are
   guarded by the pool mutex. *)
type scope = { mutable open_map : (unit -> bool) option; changed : Condition.t }

type t = {
  mutex : Mutex.t;
  work_available : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable stopping : bool;
  mutable workers : unit Domain.t array;
  jobs : int;
  running : scope option Domain.DLS.key;
      (** the scope of this pool's future whose task the domain is running *)
}

let max_jobs = 64

let clamp_jobs jobs = max 1 (min jobs max_jobs)

let env_jobs () =
  match Sys.getenv_opt "JOBS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some (clamp_jobs n)
      | Some _ | None -> None)

let default_jobs () =
  match env_jobs () with
  | Some n -> n
  | None -> clamp_jobs (min 8 (Domain.recommended_domain_count ()))

(* Workers loop popping tasks; on shutdown they first drain whatever is
   still queued so no submitted task is silently dropped.  A queued task
   is entered and left with the mutex held, and releases it around user
   code.  Tasks never raise: [map] and [submit] capture exceptions and
   re-raise them on the thread that collects the result. *)
let worker t =
  Mutex.lock t.mutex;
  let rec loop () =
    match Queue.take_opt t.queue with
    | Some task ->
        task ();
        loop ()
    | None when t.stopping -> ()
    | None ->
        Condition.wait t.work_available t.mutex;
        loop ()
  in
  loop ();
  Mutex.unlock t.mutex

let create ~jobs =
  let jobs = clamp_jobs jobs in
  let t =
    {
      mutex = Mutex.create ();
      work_available = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      workers = [||];
      jobs;
      running = Domain.DLS.new_key (fun () -> None);
    }
  in
  (* The thread calling [map] runs items of its own batch, so [jobs - 1]
     domains give [jobs]-way parallelism (and jobs = 1 spawns nothing: a
     plain serial map). *)
  if jobs > 1 then t.workers <- Array.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let jobs t = t.jobs

(* A waiting thread helps only its own fan-out: [map] claims the unstarted
   items of its own batch; [await] runs its own future's task if no worker
   has started it, and otherwise claims the unstarted items of the map
   that task opened last.  Neither ever runs another batch's task, so a
   task that waits inside [map] or [await] never stacks an unrelated task
   on its own, and what a waiting thread waits for is always already
   running. *)
let map (type b) t (f : 'a -> b) (xs : 'a array) : b array =
  if t.stopping then invalid_arg "Parallel.Pool.map: pool is shut down";
  let n = Array.length xs in
  if n <= 1 || Array.length t.workers = 0 then Array.map f xs
  else begin
    let results : b option array = Array.make n None in
    (* First error by input index, so the raised exception is
       deterministic even when several tasks fail.  Every field below is
       guarded by the pool mutex. *)
    let first_error = ref None in
    let next = ref 0 in
    let remaining = ref n in
    let batch_done = Condition.create () in
    (* Claim and run unstarted items until none is left, and say whether
       there was one; entered and left with the mutex held. *)
    let drain () =
      let claimed = !next < n in
      while !next < n do
        let i = !next in
        incr next;
        Mutex.unlock t.mutex;
        let r =
          match f xs.(i) with
          | v -> Ok v
          | exception e -> Error (e, Printexc.get_raw_backtrace ())
        in
        Mutex.lock t.mutex;
        (match r with
        | Ok v -> results.(i) <- Some v
        | Error err -> (
            match !first_error with
            | Some (j, _) when j < i -> ()
            | Some _ | None -> first_error := Some (i, err)));
        decr remaining;
        if !remaining = 0 then Condition.broadcast batch_done
      done;
      claimed
    in
    Mutex.lock t.mutex;
    (* The caller claims item 0 below, so at most [n - 1] helpers. *)
    for _ = 1 to min (n - 1) (Array.length t.workers) do
      Queue.push (fun () -> ignore (drain ())) t.queue
    done;
    Condition.broadcast t.work_available;
    Option.iter
      (fun s ->
        s.open_map <- Some drain;
        Condition.broadcast s.changed)
      (Domain.DLS.get t.running);
    ignore (drain ());
    while !remaining > 0 do
      Condition.wait batch_done t.mutex
    done;
    Mutex.unlock t.mutex;
    match !first_error with
    | Some (_, (e, bt)) -> Printexc.raise_with_backtrace e bt
    | None -> Array.map (function Some v -> v | None -> assert false) results
  end

(* [task] is taken by whichever thread starts it first, a worker or
   [await]; the rest of the state is guarded by the pool mutex. *)
type 'a future = {
  mutable task : (unit -> ('a, exn * Printexc.raw_backtrace) result) option;
  mutable result : ('a, exn * Printexc.raw_backtrace) result option;
  scope : scope;
}

(* Run [fut]'s task unless a thread has already started it; entered and
   left with the mutex held. *)
let start t fut =
  match fut.task with
  | None -> ()
  | Some task ->
      fut.task <- None;
      Mutex.unlock t.mutex;
      let outer = Domain.DLS.get t.running in
      Domain.DLS.set t.running (Some fut.scope);
      let r = task () in
      Domain.DLS.set t.running outer;
      Mutex.lock t.mutex;
      fut.result <- Some r;
      Condition.broadcast fut.scope.changed

let submit (type a) t (f : unit -> a) : a future =
  (* The serve loop drains and exits before it shuts the pool down, so this
     guard cannot fire on the request path; static analysis cannot see that
     ordering, hence the point waiver. *)
  if t.stopping then
    (invalid_arg [@lint.allow "G003"]) "Parallel.Pool.submit: pool is shut down";
  let task () =
    match f () with
    | v -> Ok v
    | exception e -> Error (e, Printexc.get_raw_backtrace ())
  in
  let fut =
    { task = Some task; result = None; scope = { open_map = None; changed = Condition.create () } }
  in
  Mutex.lock t.mutex;
  if Array.length t.workers = 0 then start t fut
  else begin
    Queue.push (fun () -> start t fut) t.queue;
    Condition.broadcast t.work_available
  end;
  Mutex.unlock t.mutex;
  fut

let await t fut =
  Mutex.lock t.mutex;
  start t fut;
  while Option.is_none fut.result do
    let helped = match fut.scope.open_map with Some drain -> drain () | None -> false in
    if not helped then Condition.wait fut.scope.changed t.mutex
  done;
  let r = match fut.result with Some r -> r | None -> assert false in
  Mutex.unlock t.mutex;
  match r with Ok v -> v | Error (e, bt) -> Printexc.raise_with_backtrace e bt

let shutdown t =
  Mutex.lock t.mutex;
  if t.stopping then Mutex.unlock t.mutex
  else begin
    t.stopping <- true;
    Condition.broadcast t.work_available;
    Mutex.unlock t.mutex;
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end

(* Process-lifetime pools, one per distinct [jobs] value.  Analyses and
   experiment sweeps grab these instead of spawning fresh domains per
   call, which both bounds the domain count and keeps pool reuse cheap. *)
let shared_mutex = Mutex.create ()
let shared_pools : (int, t) Hashtbl.t = Hashtbl.create 4

let shared ~jobs =
  let jobs = clamp_jobs jobs in
  Mutex.lock shared_mutex;
  let p =
    match Hashtbl.find_opt shared_pools jobs with
    | Some p -> p
    | None ->
        let p = create ~jobs in
        Hashtbl.add shared_pools jobs p;
        p
  in
  Mutex.unlock shared_mutex;
  p
