type t = { ops : Ops.t array; mutable cur : int }

type progress = More | Blocked | Query_done

let create ops =
  if Array.length ops = 0 then invalid_arg "Query.create: empty plan";
  { ops; cur = 0 }

let rec step t sink =
  let op = t.ops.(t.cur) in
  match op.Ops.step sink with
  | Ops.More -> More
  | Ops.Blocked -> Blocked
  | Ops.Done ->
      if t.cur + 1 < Array.length t.ops then begin
        t.cur <- t.cur + 1;
        (* The next operator starts immediately within the same quantum. *)
        step t sink
      end
      else begin
        Array.iter (fun o -> o.Ops.reset ()) t.ops;
        t.cur <- 0;
        Query_done
      end
