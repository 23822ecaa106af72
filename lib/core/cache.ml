module Stats = Nv_nvmm.Stats

(* An eviction list: rows in push order, in an array reused across
   epochs (a list per epoch used to cost a cons per fill). *)
type vec = { mutable rows : Row.t array; mutable n : int }

let no_row = Row.make ~key:0L ~table:(-1) ~home_core:0 ~prow_base:0 ~created_epoch:0

(* Evicted cells kept for reuse, at most this many. *)
let max_free_cells = 1024

type t = {
  max_entries : int;
  lists : (int, vec) Hashtbl.t; (* eviction list per epoch *)
  mutable spare_vecs : vec list; (* processed lists, emptied for reuse *)
  mutable free_cells : Row.cached option array;
      (* evicted cells whose buffer no reader holds: a fill of an
         uncached row takes one instead of allocating a cell and buffer *)
  mutable n_free : int;
  mutable entries : int;
  mutable data_bytes : int;
  mutable hits : int;
  mutable misses : int;
}

let create ~max_entries =
  {
    max_entries;
    lists = Hashtbl.create 64;
    spare_vecs = [];
    free_cells = [||];
    n_free = 0;
    entries = 0;
    data_bytes = 0;
    hits = 0;
    misses = 0;
  }

let push_list t epoch row =
  let l =
    match Hashtbl.find t.lists epoch with
    | l -> l
    | exception Not_found ->
        let l =
          match t.spare_vecs with
          | v :: rest ->
              t.spare_vecs <- rest;
              v
          | [] -> { rows = [||]; n = 0 }
        in
        Hashtbl.add t.lists epoch l;
        l
  in
  if l.n = Array.length l.rows then begin
    let grown = Array.make (max 64 (2 * l.n)) no_row in
    Array.blit l.rows 0 grown 0 l.n;
    l.rows <- grown
  end;
  l.rows.(l.n) <- row;
  l.n <- l.n + 1

let lines stats len = Nv_nvmm.Memspec.lines_touched (Stats.spec stats) ~off:0 ~len

(* The single admission predicate: an insert lands (and charges DRAM)
   iff the row is already cached (in-place refresh) or the cache has
   headroom. [insert] consults exactly this rule, so any code that
   needs to predict an admission shares it instead of re-deriving it. *)
let admits t (row : Row.t) = row.Row.cached <> None || t.entries < t.max_entries

(* Count a new entry in [cell] (already holding its data) and list it. *)
let add_entry t stats (row : Row.t) cell ~len ~epoch =
  row.Row.cached <- cell;
  t.entries <- t.entries + 1;
  t.data_bytes <- t.data_bytes + len;
  Stats.dram_write_lines stats (lines stats len);
  push_list t epoch row

(* Install [data] as the row's cached value. An uncached row reuses
   the cell the append step set aside ([Row.spare]) when there is one. *)
let install t stats (row : Row.t) ~data ~shared ~epoch =
  match row.Row.cached with
  | Some c ->
      t.data_bytes <- t.data_bytes - Bytes.length c.Row.data + Bytes.length data;
      c.Row.data <- data;
      c.Row.last_epoch <- epoch;
      c.Row.shared <- shared;
      Stats.dram_write_lines stats (lines stats (Bytes.length data))
  | None ->
      let cell =
        match row.Row.spare with
        | Some c as cell ->
            c.Row.data <- data;
            c.Row.last_epoch <- epoch;
            c.Row.shared <- shared;
            row.Row.spare <- None;
            cell
        | None -> Some { Row.data; last_epoch = epoch; shared }
      in
      add_entry t stats row cell ~len:(Bytes.length data) ~epoch

(* The caller keeps [data] (a committed read's result, an Aria write),
   so the cache never writes into it. *)
let insert t stats (row : Row.t) ~data ~epoch =
  if admits t row then install t stats row ~data ~shared:true ~epoch

(* A cell whose [len]-byte buffer no reader holds: the row's set-aside
   one, else the most recently evicted one. *)
let take_cell t (row : Row.t) len =
  let fits = function
    | Some c -> (not c.Row.shared) && Bytes.length c.Row.data = len
    | None -> false
  in
  if fits row.Row.spare then begin
    let cell = row.Row.spare in
    row.Row.spare <- None;
    cell
  end
  else if t.n_free > 0 && fits t.free_cells.(t.n_free - 1) then begin
    t.n_free <- t.n_free - 1;
    let cell = t.free_cells.(t.n_free) in
    t.free_cells.(t.n_free) <- None;
    cell
  end
  else None

let fill t stats (row : Row.t) ~src ~src_off ~len ~epoch =
  if admits t row then
    match row.Row.cached with
    | Some c when (not c.Row.shared) && Bytes.length c.Row.data = len ->
        Bytes.blit src src_off c.Row.data 0 len;
        install t stats row ~data:c.Row.data ~shared:false ~epoch
    | Some _ -> install t stats row ~data:(Bytes.sub src src_off len) ~shared:false ~epoch
    | None -> (
        match take_cell t row len with
        | Some c as cell ->
            Bytes.blit src src_off c.Row.data 0 len;
            c.Row.last_epoch <- epoch;
            add_entry t stats row cell ~len ~epoch
        | None -> install t stats row ~data:(Bytes.sub src src_off len) ~shared:false ~epoch)

let touch t (row : Row.t) ~epoch =
  match row.Row.cached with
  | Some c ->
      t.hits <- t.hits + 1;
      if c.Row.last_epoch < epoch then c.Row.last_epoch <- epoch
  | None -> ()

let note_miss t = t.misses <- t.misses + 1

let drop t stats (row : Row.t) =
  match row.Row.cached with
  | None -> ()
  | Some c ->
      row.Row.spare <- row.Row.cached;
      row.Row.cached <- None;
      t.entries <- t.entries - 1;
      t.data_bytes <- t.data_bytes - Bytes.length c.Row.data;
      Stats.dram_write stats ()

let keep_free_cell t cell =
  match cell with
  | Some c when (not c.Row.shared) && t.n_free < max_free_cells ->
      if t.n_free = Array.length t.free_cells then begin
        let grown = Array.make (max 64 (2 * t.n_free)) None in
        Array.blit t.free_cells 0 grown 0 t.n_free;
        t.free_cells <- grown
      end;
      t.free_cells.(t.n_free) <- cell;
      t.n_free <- t.n_free + 1
  | Some _ | None -> ()

let evict t stats ~current_epoch ~k =
  let target = current_epoch - k - 1 in
  match Hashtbl.find t.lists target with
  | exception Not_found -> 0
  | l ->
      Hashtbl.remove t.lists target;
      let evicted = ref 0 in
      let visit (row : Row.t) =
        Stats.dram_read stats ();
        match row.Row.cached with
        | None -> () (* dropped by the append step or a delete *)
        | Some c as cell ->
            if c.Row.last_epoch <= target then begin
              row.Row.cached <- None;
              t.entries <- t.entries - 1;
              t.data_bytes <- t.data_bytes - Bytes.length c.Row.data;
              keep_free_cell t cell;
              incr evicted
            end
            else push_list t c.Row.last_epoch row
      in
      (* Newest push first, the order the list always had. *)
      for i = l.n - 1 downto 0 do
        visit l.rows.(i)
      done;
      Array.fill l.rows 0 l.n no_row;
      l.n <- 0;
      t.spare_vecs <- l :: t.spare_vecs;
      !evicted

let entries t = t.entries
let data_bytes t = t.data_bytes
let dram_bytes t = t.data_bytes + (t.entries * 32)
let hits t = t.hits
let misses t = t.misses
