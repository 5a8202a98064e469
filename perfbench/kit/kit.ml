let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Kit.percentile: empty sample";
  if not (p >= 0.0 && p <= 100.0) then invalid_arg "Kit.percentile: p outside [0, 100]";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let h = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float h in
  let hi = min (n - 1) (lo + 1) in
  s.(lo) +. ((h -. float_of_int lo) *. (s.(hi) -. s.(lo)))

let median xs = percentile xs 50.0

module Span = struct
  type t = { id : int; name : string; parent : int; op : int; start : float; stop : float }

  type recorder = {
    clock : unit -> float;
    mutable next_id : int;
    mutable next_op : int;
    mutable stack : (int * int) list;  (* open spans: (id, op), innermost first *)
    mutable closed : t list;
  }

  let recorder ~clock = { clock; next_id = 0; next_op = 0; stack = []; closed = [] }

  let open_span r ~op =
    let id = r.next_id in
    r.next_id <- id + 1;
    let parent = match r.stack with (p, _) :: _ -> p | [] -> -1 in
    r.stack <- (id, op) :: r.stack;
    (id, parent, r.clock ())

  let close_span r name ~op (id, parent, start) =
    let stop = r.clock () in
    r.stack <- List.tl r.stack;
    r.closed <- { id; name; parent; op; start; stop } :: r.closed

  let run r name ~op f =
    let opened = open_span r ~op in
    Fun.protect ~finally:(fun () -> close_span r name ~op opened) f

  let with_span r name f =
    let op = match r.stack with (_, op) :: _ -> op | [] -> -1 in
    run r name ~op f

  let op r name f =
    let op = r.next_op in
    r.next_op <- op + 1;
    run r name ~op f

  let current_op r = match r.stack with (_, op) :: _ -> Some op | [] -> None

  let spans r = List.sort (fun a b -> compare a.id b.id) r.closed

  (* Length of the union of [intervals], each clipped to [lo, hi]. *)
  let covered ~lo ~hi intervals =
    let clipped =
      List.filter_map
        (fun (a, b) ->
          let a = Float.max a lo and b = Float.min b hi in
          if b > a then Some (a, b) else None)
        intervals
      |> List.sort compare
    in
    let total, last =
      List.fold_left
        (fun (total, cur) (a, b) ->
          match cur with
          | None -> (total, Some (a, b))
          | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
          | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
        (0.0, None) clipped
    in
    match last with None -> total | Some (a, b) -> total +. (b -. a)

  let self_times all =
    let children = Hashtbl.create 64 in
    List.iter
      (fun c ->
        let prev = Option.value (Hashtbl.find_opt children c.parent) ~default:[] in
        Hashtbl.replace children c.parent ((c.start, c.stop) :: prev))
      all;
    List.map
      (fun s ->
        let kids = Option.value (Hashtbl.find_opt children s.id) ~default:[] in
        (s, s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop kids))
      all

  let self_by_op all =
    let per_op = Hashtbl.create 64 in
    List.iter
      (fun (s, self) ->
        let names =
          match Hashtbl.find_opt per_op s.op with
          | Some names -> names
          | None ->
              let names = Hashtbl.create 8 in
              Hashtbl.replace per_op s.op names;
              names
        in
        let prev = Option.value (Hashtbl.find_opt names s.name) ~default:0.0 in
        Hashtbl.replace names s.name (prev +. self))
      (self_times all);
    Hashtbl.fold
      (fun op names acc ->
        (op, List.sort compare (Hashtbl.fold (fun n v acc -> (n, v) :: acc) names [])) :: acc)
      per_op []
    |> List.sort compare

  let roots all = List.filter (fun s -> s.parent = -1) all

  let to_tsv all =
    let t0 = match all with [] -> 0.0 | s :: _ -> s.start in
    let b = Buffer.create 4096 in
    Buffer.add_string b "id\tparent\top\tname\tstart_s\tstop_s\n";
    List.iter
      (fun s ->
        Printf.bprintf b "%d\t%d\t%d\t%s\t%.6f\t%.6f\n" s.id s.parent s.op s.name
          (s.start -. t0) (s.stop -. t0))
      all;
    Buffer.contents b
end

module Tally = struct
  type t = { mutable attempted : int; mutable failed : int }

  let create () = { attempted = 0; failed = 0 }

  let attempt t check =
    t.attempted <- t.attempted + 1;
    let ok =
      try check ()
      with e ->
        Printf.eprintf "perfbench: operation raised %s\n%!" (Printexc.to_string e);
        false
    in
    if not ok then t.failed <- t.failed + 1

  let attempted t = t.attempted
  let failed t = t.failed
end

type metric = { name : string; value : float; unit_ : string }

let result_json ~attempted ~failed metrics =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    (failed = 0) attempted failed;
  List.iteri
    (fun i m ->
      if not (Float.is_finite m.value) then
        invalid_arg (Printf.sprintf "Kit.result_json: %s is not finite" m.name);
      Printf.bprintf b "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}"
        (if i = 0 then "" else ", ")
        m.name m.value m.unit_)
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b
