(* Fork-join fan-out over Domain.  The pool keeps its workers parked
   on a condition variable; each [map] publishes one job (a chunked
   index space plus an atomic claim counter), wakes everyone, works
   its own share, and waits for the chunk-completion count.  Results
   land in per-index slots, so ordering never depends on which domain
   ran what. *)

exception Task_error of int * exn

let () =
  Printexc.register_printer (function
    | Task_error (i, e) ->
      Some (Printf.sprintf "Par.Task_error(task %d: %s)" i (Printexc.to_string e))
    | _ -> None)

type worker_stat = { w_chunks : int; w_items : int; w_busy : float }

let zero_stat = { w_chunks = 0; w_items = 0; w_busy = 0. }

type job = {
  nchunks : int;
  next : int Atomic.t;  (* chunk claim counter *)
  failed : bool Atomic.t;  (* fast-path check to stop claiming *)
  completed : int Atomic.t;
  mutable failure : exn option;  (* first failure, under the pool mutex *)
  run_chunk : worker:int -> int -> unit;
}

type t = {
  mutable njobs : int;  (* worker count actually running, spawned + 1 *)
  requested : int;  (* what the caller asked for; sizes [stats] *)
  mutex : Mutex.t;
  wake : Condition.t;  (* workers: a new job or shutdown *)
  finished : Condition.t;  (* caller: all chunks completed *)
  mutable gen : int;
  mutable job : job option;
  mutable stop : bool;
  mutable shut : bool;
  mutable in_map : bool;
  stats : worker_stat array;
  mutable domains : unit Domain.t list;
}

let available_parallelism () = Domain.recommended_domain_count ()
let default_jobs = available_parallelism
let jobs t = t.njobs

let run_chunks t (j : job) w =
  let continue = ref true in
  while !continue do
    let c = Atomic.fetch_and_add j.next 1 in
    if c >= j.nchunks then continue := false
    else begin
      (* every claimed chunk is counted completed, even when skipped
         after a failure — the caller's wait would deadlock otherwise *)
      if not (Atomic.get j.failed) then (
        try j.run_chunk ~worker:w c
        with e ->
          Atomic.set j.failed true;
          Mutex.lock t.mutex;
          if j.failure = None then j.failure <- Some e;
          Mutex.unlock t.mutex);
      (* completion counts on an atomic so finished chunks never queue
         on the mutex behind each other; the broadcast (the one slow
         path) fires exactly once, on the last chunk *)
      let done_ = 1 + Atomic.fetch_and_add j.completed 1 in
      if done_ = j.nchunks then begin
        Mutex.lock t.mutex;
        Condition.broadcast t.finished;
        Mutex.unlock t.mutex
      end
    end
  done

let rec worker_loop t w last_gen =
  Mutex.lock t.mutex;
  while (not t.stop) && t.gen = last_gen do
    Condition.wait t.wake t.mutex
  done;
  if t.stop then Mutex.unlock t.mutex
  else begin
    let gen = t.gen in
    (* the published job is never cleared, only replaced: a worker
       waking after the caller already drained it just finds the claim
       counter exhausted and goes back to sleep *)
    match t.job with
    | None ->
      Mutex.unlock t.mutex;
      worker_loop t w gen
    | Some j ->
      Mutex.unlock t.mutex;
      run_chunks t j w;
      worker_loop t w gen
  end

let create ?(oversubscribe = false) ~jobs () =
  if jobs < 1 then
    invalid_arg (Printf.sprintf "Par.create: jobs must be >= 1 (got %d)" jobs);
  (* Domains beyond the machine's cores are pure overhead under OCaml
     5's stop-the-world minor collections — oversubscribing does not
     just waste the extra domains, it drags every domain into global
     minor-GC barriers and INVERTS scaling.  So the spawn target is
     clamped to the cores the runtime advertises; [stats] keeps the
     requested width (one slot per requested worker) so accounting
     shape is independent of the host. *)
  let target =
    if oversubscribe then jobs else min jobs (available_parallelism ())
  in
  let t =
    { njobs = target; requested = jobs; mutex = Mutex.create ();
      wake = Condition.create (); finished = Condition.create (); gen = 0;
      job = None; stop = false; shut = false; in_map = false;
      stats = Array.make jobs zero_stat; domains = [] }
  in
  (* Degrade gracefully when the runtime cannot give us [target - 1]
     domains (Domain.spawn raises past the domain cap): keep the
     domains we got and shrink the pool — map still completes, just
     with less parallelism, down to fully sequential. *)
  let spawned = ref [] in
  (try
     for i = 1 to target - 1 do
       spawned := Domain.spawn (fun () -> worker_loop t i 0) :: !spawned
     done
   with _ -> ());
  t.domains <- !spawned;
  t.njobs <- List.length !spawned + 1;
  t

let shutdown t =
  if not t.shut then begin
    t.shut <- true;
    Mutex.lock t.mutex;
    t.stop <- true;
    Condition.broadcast t.wake;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.domains;
    t.domains <- []
  end

let with_pool ?oversubscribe ~jobs f =
  let t = create ?oversubscribe ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* How many chunks a [map] over [items] tasks of roughly
   [item_cost_us] µs each should use.  Aim for chunks big enough that
   the claim/complete hand-off (~µs) is noise, small enough that the
   tail rebalances: ~5 ms of work per chunk, between [jobs] and
   [4 * jobs] chunks, never more than one chunk per item — and a job
   whose whole cost is under ~1 ms is not worth fanning out at all. *)
let plan_chunks ~jobs ~items ~item_cost_us =
  if items <= 0 || jobs <= 1 then 1
  else begin
    let cost = if item_cost_us > 0. then item_cost_us else 1. in
    let total = float_of_int items *. cost in
    if total < 1000. then 1
    else
      let by_cost = int_of_float (total /. 5000.) in
      min items (max jobs (min (4 * jobs) by_cost))
  end

let map ?chunks t f xs =
  match xs with
  | [] -> []
  | _ ->
    let arr = Array.of_list xs in
    let n = Array.length arr in
    let results = Array.make n None in
    let nchunks =
      min n (max 1 (Option.value chunks ~default:(4 * t.njobs)))
    in
    (* contiguous chunk [c] covers [c*n/nchunks, (c+1)*n/nchunks) *)
    let run_chunk ~worker c =
      let lo = c * n / nchunks and hi = (c + 1) * n / nchunks in
      let t0 = Unix.gettimeofday () in
      for i = lo to hi - 1 do
        (* carry the failing input's index: a campaign supervisor can
           then point at the task, not just the pool *)
        match f arr.(i) with
        | v -> results.(i) <- Some v
        | exception (Task_error _ as e) -> raise e
        | exception e -> raise (Task_error (i, e))
      done;
      let s = t.stats.(worker) in
      t.stats.(worker) <-
        { w_chunks = s.w_chunks + 1; w_items = s.w_items + (hi - lo);
          w_busy = s.w_busy +. (Unix.gettimeofday () -. t0) }
    in
    (* the whole array, not just the active prefix: a clamped pool has
       fewer live workers than stat slots, and a stale tail would
       misattribute the previous map's work *)
    Array.fill t.stats 0 (Array.length t.stats) zero_stat;
    if t.njobs = 1 || t.in_map || t.shut then begin
      (* solo pool, nested call from a worker, or a dead pool: run
         inline in the caller — same results, no hand-off *)
      for c = 0 to nchunks - 1 do
        run_chunk ~worker:0 c
      done;
      Array.to_list (Array.map Option.get results)
    end
    else begin
      let j =
        { nchunks; next = Atomic.make 0; failed = Atomic.make false;
          completed = Atomic.make 0; failure = None; run_chunk }
      in
      t.in_map <- true;
      Mutex.lock t.mutex;
      t.job <- Some j;
      t.gen <- t.gen + 1;
      Condition.broadcast t.wake;
      Mutex.unlock t.mutex;
      run_chunks t j 0;
      Mutex.lock t.mutex;
      while Atomic.get j.completed < j.nchunks do
        Condition.wait t.finished t.mutex
      done;
      Mutex.unlock t.mutex;
      t.in_map <- false;
      match j.failure with
      | Some e -> raise e
      | None -> Array.to_list (Array.map Option.get results)
    end

let last_stats t = Array.copy t.stats

(* ---- per-task supervision --------------------------------------- *)

type 'a task_outcome =
  | Done of 'a
  | Crashed of { attempts : int; error : string }
  | Over_budget of { attempts : int; budget : float; elapsed : float }

let run_supervised ?budget ?(retries = 1) f =
  let start = Unix.gettimeofday () in
  (* the budget doubles as an overall deadline: an attempt that burned
     the whole budget must not buy itself a retry, or a pathological
     task holds the caller for (retries + 1) * budget wall-clock *)
  let past_deadline () =
    match budget with
    | None -> false
    | Some b -> Unix.gettimeofday () -. start > b
  in
  let rec go attempt =
    let t0 = Unix.gettimeofday () in
    match f () with
    | v -> (
        match budget with
        | Some b when Unix.gettimeofday () -. t0 > b ->
          if attempt <= retries && not (past_deadline ()) then go (attempt + 1)
          else
            Over_budget
              { attempts = attempt; budget = b;
                elapsed = Unix.gettimeofday () -. start }
        | _ -> Done v)
    | exception e ->
      if attempt <= retries && not (past_deadline ()) then go (attempt + 1)
      else Crashed { attempts = attempt; error = Printexc.to_string e }
  in
  go 1
